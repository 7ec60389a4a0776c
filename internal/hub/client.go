package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/vkernel"
)

// Client is the campaign-embedded hub connection; it implements
// fuzz.HubSync. Each Sync diffs the campaign snapshot against what
// the hub has already seen — seeds are pushed once (content-addressed
// dedup), coverage as new-block deltas, crashes as count deltas — and
// imports the merged corpus diff the hub returns. Transient transport
// and server errors are retried with doubling backoff; a hub restart
// is survived by transparent re-registration and a generation reset.
//
// Client is safe for concurrent use; syncs serialize on an internal
// mutex (parallel campaign units share one connection).
type Client struct {
	baseURL     string
	target      *prog.Target
	hc          *http.Client
	attempts    int
	backoff     time.Duration
	name        string
	fingerprint string
	binary      bool

	mu       sync.Mutex
	workerID string            // guarded by mu
	leaseID  string            // guarded by mu
	leaseTTL time.Duration     // guarded by mu
	gen      int               // guarded by mu
	pushed   map[string]bool   // guarded by mu
	lastCov  *vkernel.CoverSet // guarded by mu
	// addrs caches content addresses by program: pooled programs are
	// read-only (fuzz.SyncState), so a program needs serializing only
	// the first time a sync sees it. Each sync rebuilds the cache from
	// its snapshot and adds what it pulled, so it never holds more
	// than one snapshot plus one pull.
	addrs   map[*prog.Prog]string // guarded by mu
	crashes map[string]int        // guarded by mu

	// HubFingerprint is the hub target's fingerprint as reported at
	// registration (read-only after Dial).
	HubFingerprint string
	// HubSeeds is the hub corpus size at registration.
	HubSeeds int
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport (tests, custom timeouts).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry sets the per-request try count and initial backoff
// (doubling between tries; context cancellation interrupts the
// sleep). attempts < 1 means one try.
func WithRetry(attempts int, backoff time.Duration) ClientOption {
	return func(c *Client) { c.attempts = attempts; c.backoff = backoff }
}

// WithProtocol selects the /v1/sync encoding: "binary" (the default;
// compact frame streams with compressed cover deltas) or "json" (the
// PR-5 wire format, interoperable with any hub). Register, heartbeat,
// and monitoring endpoints always speak JSON.
func WithProtocol(proto string) ClientOption {
	return func(c *Client) { c.binary = proto != "json" }
}

// Dial registers a worker with the hub at baseURL and returns the
// connected client. The worker's fingerprint is derived from its
// compiled target; name labels it in the hub's stats.
func Dial(ctx context.Context, baseURL, name string, t *prog.Target, opts ...ClientOption) (*Client, error) {
	c := &Client{
		baseURL:     baseURL,
		target:      t,
		hc:          &http.Client{Timeout: 30 * time.Second},
		attempts:    3,
		backoff:     100 * time.Millisecond,
		name:        name,
		fingerprint: Fingerprint(t),
		binary:      true,
		pushed:      map[string]bool{},
		lastCov:     &vkernel.CoverSet{},
		crashes:     map[string]int{},
	}
	for _, o := range opts {
		o(c)
	}
	resp, err := c.register(ctx)
	if err != nil {
		return nil, err
	}
	c.HubFingerprint = resp.HubFingerprint
	c.HubSeeds = resp.Seeds
	return c, nil
}

// register performs the /v1/register exchange, presenting the current
// lease for resumption when one is held. The returned response tells
// the caller whether the hub resumed the lease (our delta bookkeeping
// is still valid hub-side). It deliberately does not touch the
// exported HubFingerprint/HubSeeds fields: those are documented
// read-only after Dial, and register also runs during transparent
// re-registration inside Sync, where rewriting them would race with
// concurrent readers.
//
//syzlint:locked mu
func (c *Client) register(ctx context.Context) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.do(ctx, "/v1/register", RegisterRequest{
		Version: ProtoVersion, Name: c.name, Fingerprint: c.fingerprint,
		LeaseID: c.leaseID,
	}, &resp)
	if err != nil {
		return RegisterResponse{}, fmt.Errorf("hub register: %w", err)
	}
	c.workerID = resp.WorkerID
	c.leaseID = resp.LeaseID
	c.leaseTTL = time.Duration(resp.LeaseTTLMs) * time.Millisecond
	return resp, nil
}

// LeaseID returns the current lease (empty against a pre-lease hub).
func (c *Client) LeaseID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaseID
}

// Heartbeat renews the worker's lease without a sync payload — for
// gaps between checkpoint boundaries that would outlast the TTL.
func (c *Client) Heartbeat(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp HeartbeatResponse
	err := c.do(ctx, "/v1/heartbeat", HeartbeatRequest{
		Version: ProtoVersion, WorkerID: c.workerID, LeaseID: c.leaseID,
	}, &resp)
	if err != nil {
		return fmt.Errorf("hub heartbeat: %w", err)
	}
	c.leaseTTL = time.Duration(resp.LeaseTTLMs) * time.Millisecond
	return nil
}

// WorkerID returns the hub-assigned identity (it can change after a
// transparent re-registration).
func (c *Client) WorkerID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workerID
}

// Generation returns the last store generation pulled.
func (c *Client) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Sync implements fuzz.HubSync: one push/pull exchange at a campaign
// checkpoint boundary.
func (c *Client) Sync(ctx context.Context, st fuzz.SyncState) ([]seedpool.SeedState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	req := SyncRequest{
		Version:  ProtoVersion,
		WorkerID: c.workerID,
		LeaseID:  c.leaseID,
		SinceGen: c.gen,
		Final:    st.Final,
		Stats: WorkerStats{
			Execs: st.Execs, Cover: st.Cover.Count(), Crashes: len(st.Crashes),
			Ops: opsJSON(st.Ops),
		},
	}
	// Corpus delta: seeds whose content address the hub has not seen
	// from us (either direction), capped per batch. Only programs new
	// to the address cache are serialized to find their address.
	sentFiles := make([]string, 0, MaxPushBatch)
	addrs := make(map[*prog.Prog]string, len(st.Seeds))
	for _, s := range st.Seeds {
		if len(req.Seeds) >= MaxPushBatch {
			break // remainder ships at the next boundary
		}
		var text string
		file, cached := c.addrs[s.Prog]
		if !cached {
			text = s.Prog.Serialize()
			file = corpusstore.FileFor(text)
		}
		addrs[s.Prog] = file
		if c.pushed[file] {
			continue
		}
		if cached {
			text = s.Prog.Serialize()
		}
		req.Seeds = append(req.Seeds, WireSeed{Text: text, Prio: s.Prio, Bonus: s.Bonus, Op: s.Op})
		sentFiles = append(sentFiles, file)
	}
	c.addrs = addrs
	// Coverage delta: blocks covered since the previous successful
	// sync.
	st.Cover.ForEach(func(b vkernel.BlockID) {
		if !c.lastCov.Has(b) {
			req.NewBlocks = append(req.NewBlocks, b)
		}
	})
	// Crashes: new titles, or titles whose hit count grew, with
	// cumulative counts (the hub differences per worker, so a retry
	// that repeats a committed report adds nothing).
	for _, cr := range st.Crashes {
		if cr.Count > c.crashes[cr.Title] {
			req.Crashes = append(req.Crashes, WireCrash{Title: cr.Title, Repro: cr.Repro, Count: cr.Count})
		}
	}

	resp, err := c.doSync(ctx, &req)
	if err != nil {
		if !isUnknownWorker(err) {
			return nil, err
		}
		// Our registration is gone (hub restart) or our lease lapsed
		// (missed heartbeats during a partition): re-register,
		// presenting the lease for resumption.
		reg, err := c.register(ctx)
		if err != nil {
			return nil, err
		}
		req.WorkerID = c.workerID
		req.LeaseID = c.leaseID
		if !reg.Resumed {
			// The hub holds no state for us. The content-addressed
			// push dedup stays valid — the hub reloaded its corpus
			// from the store — but union coverage and the crash table
			// restarted empty, so those deltas replay from zero:
			// rebuild the request with the full cumulative state.
			c.lastCov = &vkernel.CoverSet{}
			c.crashes = map[string]int{}
			req.SinceGen = 0
			req.NewBlocks = st.Cover.Blocks()
			req.Crashes = nil
			for _, cr := range st.Crashes {
				if cr.Count > 0 {
					req.Crashes = append(req.Crashes, WireCrash{Title: cr.Title, Repro: cr.Repro, Count: cr.Count})
				}
			}
		}
		// A resumed lease keeps all delta bookkeeping: the hub still
		// holds our cover/crash attribution, so the original request
		// is retried as-is.
		if resp, err = c.doSync(ctx, &req); err != nil {
			return nil, err
		}
	}

	// The exchange succeeded: commit the local dedup state.
	for _, f := range sentFiles {
		c.pushed[f] = true
	}
	c.lastCov = st.Cover.Clone()
	for _, cr := range st.Crashes {
		if cr.Count > c.crashes[cr.Title] {
			c.crashes[cr.Title] = cr.Count
		}
	}
	if resp.Generation < req.SinceGen {
		c.gen = 0 // hub generation went backwards (restart): re-pull
	} else {
		c.gen = resp.Generation
	}
	// Import the pulled diff: deserialize against our own (possibly
	// narrower) target, skip what does not parse, and remember the
	// hub already holds these so we never push them back.
	var out []seedpool.SeedState
	for _, ws := range resp.Seeds {
		p, err := prog.Deserialize(c.target, ws.Text)
		if err != nil {
			continue
		}
		file := corpusstore.FileFor(ws.Text)
		c.pushed[file] = true
		if text := p.Serialize(); text != ws.Text {
			file = corpusstore.FileFor(text) // our target renders it differently
		}
		c.addrs[p] = file
		out = append(out, seedpool.SeedState{Prog: p, Prio: ws.Prio, Bonus: ws.Bonus, Op: ws.Op})
	}
	return out, nil
}

// statusError is a non-2xx HTTP reply. retryAfter carries the
// server's Retry-After hint on 429 responses.
type statusError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("hub: HTTP %d: %s", e.code, e.msg)
}

func isUnknownWorker(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.code == http.StatusNotFound
}

// retryable reports whether a request should be retried: transport
// errors, server-side (5xx) failures, and backpressure (429) are;
// other client-side (4xx) rejections are not.
func retryable(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return true
}

// withRetry runs one exchange with retry/backoff (the retry
// discipline mirrors the llm middleware: doubling sleeps, context
// cancellation is never retried and interrupts the backoff). A 429's
// Retry-After overrides the backoff for that sleep — the hub said
// when it wants us back.
func (c *Client) withRetry(ctx context.Context, fn func() error) error {
	delay := c.backoff
	attempts := c.attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			wait := delay
			if se, ok := err.(*statusError); ok && se.retryAfter > 0 {
				wait = se.retryAfter
			}
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				case <-t.C:
				}
			}
			delay *= 2
		}
		err = fn()
		if err == nil || ctx.Err() != nil || !retryable(err) {
			return err
		}
	}
	return err
}

// do POSTs one JSON request with retry/backoff.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	return c.withRetry(ctx, func() error { return c.post(ctx, path, in, out) })
}

// doSync runs one /v1/sync exchange in the negotiated protocol with
// retry/backoff.
func (c *Client) doSync(ctx context.Context, req *SyncRequest) (*SyncResponse, error) {
	var resp *SyncResponse
	err := c.withRetry(ctx, func() error {
		r, err := c.postSync(ctx, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// readError turns a non-2xx reply into a statusError, capturing the
// Retry-After hint.
func readError(resp *http.Response) error {
	var er ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	se := &statusError{code: resp.StatusCode, msg: er.Error}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			se.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// post performs one JSON POST exchange.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", JSONContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postSync performs one /v1/sync exchange, encoding per the client's
// protocol: the binary frame stream (with Accept negotiating a binary
// response) or plain JSON. Error replies are always JSON.
func (c *Client) postSync(ctx context.Context, sreq *SyncRequest) (*SyncResponse, error) {
	var body []byte
	contentType := JSONContentType
	if c.binary {
		body = EncodeSyncRequest(sreq)
		contentType = BinaryContentType
	} else {
		var err error
		if body, err = json.Marshal(sreq); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/sync", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if c.binary {
		req.Header.Set("Accept", BinaryContentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), BinaryContentType) {
		return DecodeSyncResponse(data)
	}
	out := &SyncResponse{}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, err
	}
	return out, nil
}
