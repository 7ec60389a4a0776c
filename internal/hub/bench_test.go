package hub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// benchSyncRequest is a fleet-representative exchange: a checkpoint's
// worth of fresh seeds, a clustered cover delta, and one crash.
func benchSyncRequest() *SyncRequest {
	req := &SyncRequest{
		Version:  ProtoVersion,
		WorkerID: "w17",
		LeaseID:  "L17.abcdef",
		SinceGen: 9,
		Stats: WorkerStats{
			Execs: 120000, Cover: 4800, Crashes: 2,
			Ops: []OpJSON{
				{Name: "insert", Picks: 400, NewBlocks: 90},
				{Name: "mutate-arg", Picks: 700, NewBlocks: 40},
				{Name: "splice", Picks: 300, NewBlocks: 25},
			},
		},
	}
	for i := 0; i < 32; i++ {
		req.Seeds = append(req.Seeds, WireSeed{
			Text: fmt.Sprintf("r0 = open(dev%d)\nioctl(r0, CMD%d, %d)\nclose(r0)\n", i, i%7, i*13),
			Prio: 100 + i, Bonus: i % 3, Op: "insert",
		})
	}
	for b := vkernel.BlockID(6000); b < 6400; b++ {
		req.NewBlocks = append(req.NewBlocks, b)
	}
	for b := vkernel.BlockID(7000); b < 12000; b += 17 {
		req.NewBlocks = append(req.NewBlocks, b)
	}
	req.Crashes = []WireCrash{
		{Title: "KASAN: slab-out-of-bounds in cec_transmit", Repro: "r0 = open(cec)\n", Count: 4},
	}
	return req
}

// BenchmarkHubSyncRoundtrip measures the codec hot path: one sync
// request encoded and decoded through the binary wire format.
func BenchmarkHubSyncRoundtrip(b *testing.B) {
	req := benchSyncRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeSyncRequest(req)
		if _, err := DecodeSyncRequest(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// distinctTexts generates n programs with pairwise distinct text.
func distinctTexts(tgt *prog.Target, seed int64, n int) []string {
	g := prog.NewGen(tgt, seed)
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		text := g.Generate(4).Serialize()
		if !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
	}
	return out
}

// BenchmarkHandleSync measures one /v1/sync exchange end to end in the
// handler: decode the binary request, validate and merge 4 new seeds
// into a 64-seed image, save the store to disk, diff, and encode the
// response. Each new seed outranks the image, so every op admits 4
// programs and evicts 4.
func BenchmarkHandleSync(b *testing.B) {
	const image, fresh = 64, 4
	tgt := targetFor(b, "dm", "cec", "kvm")
	store, err := corpusstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	h, err := New(tgt, store, WithCapacity(image))
	if err != nil {
		b.Fatal(err)
	}
	handler := h.Handler()
	serve := func(path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", BinaryContentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: HTTP %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	regBody, _ := json.Marshal(RegisterRequest{Version: ProtoVersion, Name: "bench", Fingerprint: Fingerprint(tgt)})
	var reg RegisterResponse
	if err := json.Unmarshal(serve("/v1/register", JSONContentType, regBody).Body.Bytes(), &reg); err != nil {
		b.Fatal(err)
	}
	texts := distinctTexts(tgt, 1, image+fresh*b.N)
	sync := func(gen int, seeds []string, prio int) []byte {
		req := &SyncRequest{Version: ProtoVersion, WorkerID: reg.WorkerID, LeaseID: reg.LeaseID, SinceGen: gen}
		for i, text := range seeds {
			req.Seeds = append(req.Seeds, WireSeed{Text: text, Prio: prio + i, Op: "insert"})
		}
		return EncodeSyncRequest(req)
	}
	serve("/v1/sync", BinaryContentType, sync(0, texts[:image], 1))
	gen0 := h.Stats().Generation
	bodies := make([][]byte, b.N)
	for i := range bodies {
		lo := image + fresh*i
		bodies[i] = sync(gen0+i, texts[lo:lo+fresh], 1000+fresh*i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve("/v1/sync", BinaryContentType, bodies[i])
	}
	b.StopTimer()
	if st := h.Stats(); st.Seeds != image || st.Generation != gen0+b.N {
		b.Fatalf("hub holds %d seeds at generation %d, want %d at %d", st.Seeds, st.Generation, image, gen0+b.N)
	}
}
