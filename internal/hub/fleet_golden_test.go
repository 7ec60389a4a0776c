package hub

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
)

// wireTap records the SHA-256 of every /v1/sync request and response
// body the hub handler sees, in arrival order.
type wireTap struct {
	next  http.Handler
	lines []string
}

func (w *wireTap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/sync" {
		w.next.ServeHTTP(rw, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	w.next.ServeHTTP(rec, r)
	w.lines = append(w.lines,
		fmt.Sprintf("req  %x", sha256.Sum256(body)),
		fmt.Sprintf("resp %d %x", rec.Code, sha256.Sum256(rec.Body.Bytes())))
	for k, v := range rec.Header() {
		rw.Header()[k] = v
	}
	rw.WriteHeader(rec.Code)
	rw.Write(rec.Body.Bytes())
}

// runFleetGolden runs three hub-attached campaigns one after another
// against one pinned hub (fixed clock, small capacity so the merged
// image evicts and the store collects orphans, state sidecar on). It
// returns the sync transcript, the final manifest bytes, and the
// sorted .prog file set. check, when set, runs after every client
// sync.
func runFleetGolden(t *testing.T, check func(c *Client, st fuzz.SyncState, pulled int)) (transcript string, manifest []byte, files []string) {
	t.Helper()
	tgt := targetFor(t, "dm", "cec", "kvm")
	clock := time.Unix(1_700_000_000, 0).UTC()
	dir := t.TempDir()
	store, err := corpusstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(tgt, store,
		WithCapacity(48),
		withNow(func() time.Time { return clock }),
		WithStatePath(filepath.Join(dir, "hubstate.json")))
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{next: h.Handler()}
	srv := httptest.NewServer(tap)
	defer srv.Close()

	ctx := context.Background()
	f := fuzz.New(tgt, testKernel)
	for i, seed := range []int64{11, 12, 13} {
		c, err := Dial(ctx, srv.URL, fmt.Sprintf("w%d", i), tgt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fuzz.DefaultConfig(4000, seed)
		cfg.Hub = checkedSync{c: c, check: check}
		if _, err := f.RunContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err = os.ReadFile(filepath.Join(store.Dir(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".prog") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return strings.Join(tap.lines, "\n") + "\n", manifest, files
}

// checkedSync forwards to a Client and runs a check after each sync.
type checkedSync struct {
	c     *Client
	check func(c *Client, st fuzz.SyncState, pulled int)
}

func (s checkedSync) Sync(ctx context.Context, st fuzz.SyncState) ([]seedpool.SeedState, error) {
	out, err := s.c.Sync(ctx, st)
	if s.check != nil {
		s.check(s.c, st, len(out))
	}
	return out, err
}

// TestFleetSyncGolden pins what a hub-attached fleet puts on the wire
// and on disk: every encoded sync request and response (by SHA-256,
// in order), the final store manifest, and the store's program file
// set. Caching serialized programs on either side of the exchange
// must not change a byte of any of them. Regenerate with `go test
// ./internal/hub -run FleetSyncGolden -update` only for a deliberate
// wire or store format change.
//
// The client's address cache is checked after every sync: it must
// never hold more entries than the sync's snapshot plus its pull.
func TestFleetSyncGolden(t *testing.T) {
	checks := 0
	transcript, manifest, files := runFleetGolden(t, func(c *Client, st fuzz.SyncState, pulled int) {
		checks++
		c.mu.Lock()
		defer c.mu.Unlock()
		if n, max := len(c.addrs), len(st.Seeds)+pulled; n > max {
			t.Errorf("sync %d: address cache holds %d programs, want <= %d (snapshot %d + pull %d)",
				checks, n, max, len(st.Seeds), pulled)
		}
	})
	if n := strings.Count(transcript, "\nresp 200 "); n < 9 {
		t.Fatalf("fleet ran %d successful syncs, want at least 9:\n%s", n, transcript)
	}
	checkGolden(t, "fleet_sync.txt", []byte(transcript+strings.Join(files, "\n")+"\n"))
	checkGolden(t, "fleet_manifest.json", manifest)
}
