// Package corpusstore persists an evolved fuzzing corpus across
// campaigns — the analogue of reusing profiles across builds in PGO:
// prior-run knowledge makes every subsequent campaign start warmer.
//
// A store is a directory of content-addressed repro-text files (one
// program per file, named by the SHA-256 of its serialized text) plus
// a JSON manifest carrying the seedpool scheduling state for each
// entry (priority, lineage bonus, operator provenance) and the
// covered-block count of the campaign that last flushed it.
//
// Writes are atomic — every file lands via temp-file + rename, and
// the manifest is renamed into place last — so a crashed flush never
// leaves a half-written store. A save writes only the program files
// its previous manifest does not list: a file is named by its
// content, so a listed file is trusted to hold the right bytes, as
// git trusts its object store. Loading is tolerant: entries whose
// content no longer matches their address (corruption) or that no
// longer deserialize against the current target (staleness after a
// spec change) are skipped and reported, never fatal. Stores
// accumulate across runs via Merge, which deduplicates by program
// text, keeps the highest-weight copy, and bounds the result
// deterministically. Load verifies every entry's address, so a listed
// file corrupted out of band is reported, never trusted on read.
//
// A store expects one writer at a time; concurrent campaigns should
// flush through a single merge point (as fuzz.RunParallel does).
package corpusstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// Version is the manifest format version this package writes.
const Version = 1

const (
	manifestName = "manifest.json"
	progExt      = ".prog"
)

// Entry is one stored seed's manifest record. The program text itself
// lives in the content-addressed File.
type Entry struct {
	// File is the content-addressed file name: <sha256-prefix>.prog.
	File string `json:"file"`
	// Prio is the seed's base scheduling weight.
	Prio int `json:"prio"`
	// Bonus is the seed's lineage bonus at flush time.
	Bonus int `json:"bonus,omitempty"`
	// Op is the mutation operator that bred the seed ("" = generated).
	Op string `json:"op,omitempty"`
	// Gen is the store generation that first admitted the entry
	// (see Manifest.Generation). Always >= 1 in manifests written by
	// this version; 0 marks entries from pre-generation manifests.
	Gen int `json:"gen,omitempty"`
}

// Manifest is the JSON index of a store directory.
type Manifest struct {
	Version int `json:"version"`
	// Generation counts Saves: every Save bumps it by one and stamps
	// entries whose program file was not in the previous manifest with
	// the new value. Diff uses it to ship only entries added after a
	// point in time — the hub's incremental corpus-sync primitive.
	Generation int `json:"generation,omitempty"`
	// CoverBlocks is the covered-block count of the campaign that
	// last flushed the store (metadata for tooling; Load reports it).
	CoverBlocks int     `json:"cover_blocks"`
	Seeds       []Entry `json:"seeds"`
}

// Skip records one entry the loader rejected and why.
type Skip struct {
	File   string
	Reason string
}

// Report summarizes one Load: how many entries made it, which were
// skipped, and the store's recorded coverage metadata.
type Report struct {
	Loaded      int
	Skipped     []Skip
	CoverBlocks int
}

// String renders the report in one line (skip reasons included).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus store: loaded %d seeds (store cover %d blocks)", r.Loaded, r.CoverBlocks)
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "; skipped %s: %s", s.File, s.Reason)
	}
	return b.String()
}

// Store is a handle on one corpus directory.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if
// needed. Opening an empty directory yields an empty store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("corpusstore: empty directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpusstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// FileFor returns the content-addressed file name for a program's
// serialized text.
func FileFor(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8]) + progExt
}

// Manifest reads the store's index. A store with no manifest yet is
// an empty manifest, not an error; a manifest that fails to parse is
// an error (the whole index is gone, there is nothing to tolerate
// entry-by-entry).
func (s *Store) Manifest() (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return &Manifest{Version: Version}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpusstore: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("corpusstore: %s: %w", manifestName, err)
	}
	if m.Version > Version {
		return nil, fmt.Errorf("corpusstore: manifest version %d newer than supported %d", m.Version, Version)
	}
	return m, nil
}

// TextFunc returns a program's serialized text. Merge and Save take
// it from (*prog.Prog).Serialize; a caller that already holds the
// text of every program it passes (the hub keeps one per program it
// holds) hands MergeTexts and SaveTexts a lookup instead, so nothing
// is serialized twice.
type TextFunc func(*prog.Prog) string

// Save atomically replaces the store contents with the given seeds
// (typically a Merge result). Program files are written first, the
// manifest is renamed into place last, and prog files no longer
// referenced are removed best-effort — so a reader always sees a
// consistent (old or new) store. Only files the previous manifest
// does not list are written: a listed file is named by the SHA-256 of
// its content, so it already holds the right bytes (Load still
// verifies every address).
//
// Save advances the store generation: entries whose program file the
// previous manifest already indexed keep their admission generation,
// new entries are stamped with the fresh one. An unreadable previous
// manifest restarts the generation lineage rather than failing the
// save (the data being written is intact either way), and every file
// is written.
func (s *Store) Save(seeds []seedpool.SeedState, coverBlocks int) error {
	_, err := s.SaveTexts((*prog.Prog).Serialize, seeds, coverBlocks)
	return err
}

// SaveTexts is Save with each program's text taken from textOf. It
// returns the manifest it wrote.
func (s *Store) SaveTexts(textOf TextFunc, seeds []seedpool.SeedState, coverBlocks int) (*Manifest, error) {
	listed := map[string]bool{}
	prevGen := map[string]int{}
	gen := 1
	if prev, err := s.Manifest(); err == nil {
		gen = prev.Generation + 1
		for _, e := range prev.Seeds {
			listed[e.File] = true
			if e.Gen > 0 {
				prevGen[e.File] = e.Gen
			}
		}
	}
	m := &Manifest{Version: Version, Generation: gen, CoverBlocks: coverBlocks}
	keep := map[string]bool{}
	for _, st := range seeds {
		if st.Prog == nil || st.Prio <= 0 {
			continue
		}
		text := textOf(st.Prog)
		name := FileFor(text)
		if keep[name] {
			continue // duplicate program; first (highest-ranked) entry wins
		}
		if !listed[name] {
			if err := writeAtomic(filepath.Join(s.dir, name), []byte(text)); err != nil {
				return nil, fmt.Errorf("corpusstore: %w", err)
			}
		}
		keep[name] = true
		eg := gen
		if g, ok := prevGen[name]; ok {
			eg = g
		}
		m.Seeds = append(m.Seeds, Entry{File: name, Prio: st.Prio, Bonus: st.Bonus, Op: st.Op, Gen: eg})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("corpusstore: %w", err)
	}
	if err := writeAtomic(filepath.Join(s.dir, manifestName), append(data, '\n')); err != nil {
		return nil, fmt.Errorf("corpusstore: %w", err)
	}
	// Garbage-collect orphaned program files from earlier flushes.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return m, nil // the save itself succeeded
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, progExt) && !keep[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return m, nil
}

// writeAtomic lands data at path via temp file + rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads every manifest entry, verifies its content address, and
// deserializes it against the target (which validates resource
// references). Entries that fail any step are skipped and reported;
// only a missing/corrupt manifest is an error. The returned states
// preserve manifest order.
func (s *Store) Load(t *prog.Target) ([]seedpool.SeedState, *Report, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{CoverBlocks: m.CoverBlocks}
	var out []seedpool.SeedState
	for _, e := range m.Seeds {
		st, reason := s.loadEntry(t, e)
		if reason != "" {
			rep.Skipped = append(rep.Skipped, Skip{File: e.File, Reason: reason})
			continue
		}
		out = append(out, st)
	}
	rep.Loaded = len(out)
	return out, rep, nil
}

// Diff loads only the entries admitted after generation since — the
// incremental form of Load that lets a sync ship just the seeds a
// reader has not seen yet. since <= 0 selects everything (entries
// from pre-generation manifests carry Gen 0 and are included only
// then). The store's current generation is returned so the caller can
// resume from it; entries that fail validation are skipped and
// reported exactly as in Load. The hub serves its pull diffs from an
// in-memory mirror of the same manifest generations (hub.Hub.diff
// keeps the selection semantics aligned with this method); Diff is
// the store-level form for tooling and out-of-process readers.
func (s *Store) Diff(t *prog.Target, since int) ([]seedpool.SeedState, int, *Report, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, 0, nil, err
	}
	rep := &Report{CoverBlocks: m.CoverBlocks}
	var out []seedpool.SeedState
	for _, e := range m.Seeds {
		if since > 0 && e.Gen <= since {
			continue
		}
		st, reason := s.loadEntry(t, e)
		if reason != "" {
			rep.Skipped = append(rep.Skipped, Skip{File: e.File, Reason: reason})
			continue
		}
		out = append(out, st)
	}
	rep.Loaded = len(out)
	return out, m.Generation, rep, nil
}

// loadEntry validates one entry; a non-empty reason means skip.
func (s *Store) loadEntry(t *prog.Target, e Entry) (seedpool.SeedState, string) {
	if e.Prio <= 0 {
		return seedpool.SeedState{}, fmt.Sprintf("non-positive priority %d", e.Prio)
	}
	if e.File == "" || filepath.Base(e.File) != e.File {
		return seedpool.SeedState{}, fmt.Sprintf("bad file name %q", e.File)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return seedpool.SeedState{}, fmt.Sprintf("unreadable: %v", err)
	}
	if FileFor(string(data)) != e.File {
		return seedpool.SeedState{}, "content does not match address (corrupted)"
	}
	p, err := prog.Deserialize(t, string(data))
	if err != nil {
		return seedpool.SeedState{}, fmt.Sprintf("stale against target: %v", err)
	}
	return seedpool.SeedState{Prog: p, Prio: e.Prio, Bonus: e.Bonus, Op: e.Op}, ""
}

// Merge folds seed sets into one bounded store image. Sets are
// visited in argument order; duplicate programs (identical serialized
// text) keep the higher-weight copy (earlier copy wins ties). The
// result is ordered by descending weight, then ascending program
// text, and truncated to capacity (<= 0 selects
// seedpool.DefaultCapacity) — fully deterministic for a fixed
// argument order, independent of map iteration or completion order.
func Merge(capacity int, sets ...[]seedpool.SeedState) []seedpool.SeedState {
	return MergeTexts((*prog.Prog).Serialize, capacity, sets...)
}

// MergeTexts is Merge with each program's text taken from textOf.
func MergeTexts(textOf TextFunc, capacity int, sets ...[]seedpool.SeedState) []seedpool.SeedState {
	if capacity <= 0 {
		capacity = seedpool.DefaultCapacity
	}
	type item struct {
		st   seedpool.SeedState
		text string
	}
	index := map[string]int{}
	var items []item
	for _, set := range sets {
		for _, st := range set {
			if st.Prog == nil || st.Prio <= 0 {
				continue
			}
			text := textOf(st.Prog)
			if i, ok := index[text]; ok {
				if st.Weight() > items[i].st.Weight() {
					items[i].st = st
				}
				continue
			}
			index[text] = len(items)
			items = append(items, item{st: st, text: text})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if wi, wj := items[i].st.Weight(), items[j].st.Weight(); wi != wj {
			return wi > wj
		}
		return items[i].text < items[j].text
	})
	if len(items) > capacity {
		items = items[:capacity]
	}
	out := make([]seedpool.SeedState, len(items))
	for i, it := range items {
		out[i] = it.st
	}
	return out
}
