package corpusstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// referenceSave is the full-rewrite store flush: every program file is
// written on every save, then the manifest, then orphans are removed.
// Save must produce exactly its store while writing only new files.
func referenceSave(t *testing.T, dir string, seeds []seedpool.SeedState, coverBlocks int) {
	t.Helper()
	prevGen := map[string]int{}
	gen := 1
	if prev, err := (&Store{dir: dir}).Manifest(); err == nil {
		gen = prev.Generation + 1
		for _, e := range prev.Seeds {
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
		text := st.Prog.Serialize()
		name := FileFor(text)
		if keep[name] {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
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
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range progFiles(t, dir) {
		if !keep[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// progFiles lists the .prog files in dir, sorted.
func progFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), progExt) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// fileInfos stats every .prog file in dir, by name.
func fileInfos(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	out := map[string]os.FileInfo{}
	for _, name := range progFiles(t, dir) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fi
	}
	return out
}

// overlappingImages is a sequence of store images over one program
// set: sliding windows that keep some programs, drop some and admit
// some, with weights that change between images, duplicate copies of
// one program, and a non-positive priority that Save must skip.
func overlappingImages(t *testing.T, tgt *prog.Target) [][]seedpool.SeedState {
	t.Helper()
	all := genSeeds(t, tgt, 30)
	var images [][]seedpool.SeedState
	for i, lo := range []int{0, 4, 4, 9, 15, 2} {
		img := append([]seedpool.SeedState(nil), all[lo:lo+12]...)
		for j := range img {
			img[j].Prio += i
		}
		img = append(img, img[0]) // a duplicate: the first copy wins
		img[1].Prio = 0           // skipped
		images = append(images, img)
	}
	return images
}

func TestSaveWritesOnlyNewFiles(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	refDir := t.TempDir()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	laterWrites := 0
	for i, img := range overlappingImages(t, tgt) {
		prev, err := st.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, e := range prev.Seeds {
			listed[e.File] = true
		}
		before := fileInfos(t, st.Dir())

		if err := st.Save(img, 100+i); err != nil {
			t.Fatal(err)
		}
		referenceSave(t, refDir, img, 100+i)

		got, err := os.ReadFile(filepath.Join(st.Dir(), manifestName))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("image %d: manifest differs from a full rewrite:\n got %s\nwant %s", i, got, want)
		}
		files := progFiles(t, st.Dir())
		if ref := progFiles(t, refDir); !reflect.DeepEqual(files, ref) {
			t.Fatalf("image %d: file set %v, full rewrite has %v", i, files, ref)
		}
		m, err := st.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(m.Seeds) {
			t.Fatalf("image %d: %d files for %d manifest entries (orphans left behind)", i, len(files), len(m.Seeds))
		}
		written := 0
		for name, fi := range fileInfos(t, st.Dir()) {
			data, err := os.ReadFile(filepath.Join(st.Dir(), name))
			if err != nil {
				t.Fatal(err)
			}
			if ref, _ := os.ReadFile(filepath.Join(refDir, name)); !bytes.Equal(data, ref) {
				t.Fatalf("image %d: %s content differs from a full rewrite", i, name)
			}
			old, existed := before[name]
			switch {
			case listed[name] && !os.SameFile(old, fi):
				t.Fatalf("image %d: %s was listed by the previous manifest but rewritten", i, name)
			case !listed[name] && existed && os.SameFile(old, fi):
				t.Fatalf("image %d: %s was not listed but not written either", i, name)
			case !listed[name]:
				written++
			}
		}
		if i > 0 {
			laterWrites += written
		}
	}
	if laterWrites == 0 {
		t.Fatal("no save after the first wrote a file; the images must overlap, not repeat")
	}
}

// TestSaveTrustsListedFilesAndLoadVerifies: a listed file corrupted
// out of band is not rewritten by the next Save (the store trusts its
// content addresses), and Load still reports it.
func TestSaveTrustsListedFilesAndLoadVerifies(t *testing.T) {
	tgt := targetFor(t, "dm")
	seeds := genSeeds(t, tgt, 5)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 1); err != nil {
		t.Fatal(err)
	}
	victim := FileFor(seeds[2].Prog.Serialize())
	if err := os.WriteFile(filepath.Join(st.Dir(), victim), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 2); err != nil {
		t.Fatal(err)
	}
	got, rep, err := st.Load(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(rep.Skipped) != 1 || rep.Skipped[0].File != victim ||
		!strings.Contains(rep.Skipped[0].Reason, "corrupted") {
		t.Fatalf("want the corrupted %s reported and 4 loaded; got %d loaded, skipped %+v", victim, len(got), rep.Skipped)
	}
	// An unreadable previous manifest lists nothing, so the next Save
	// writes every file again and repairs the store.
	if err := os.WriteFile(filepath.Join(st.Dir(), manifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(seeds, 3); err != nil {
		t.Fatal(err)
	}
	if got, rep, err := st.Load(tgt); err != nil || len(got) != 5 || len(rep.Skipped) != 0 {
		t.Fatalf("save after a lost manifest must rewrite every file: loaded %d, skipped %+v, err %v", len(got), rep, err)
	}
}

// TestTextSourceMatchesSerialize: MergeTexts and SaveTexts given each
// program's text produce exactly what Merge and Save produce by
// serializing, and read text only from the source.
func TestTextSourceMatchesSerialize(t *testing.T) {
	tgt := targetFor(t, "dm", "cec")
	texts := map[*prog.Prog]string{}
	source := func(p *prog.Prog) string {
		text, ok := texts[p]
		if !ok {
			t.Fatal("text source asked for a program it was not given")
		}
		return text
	}
	images := overlappingImages(t, tgt)
	for _, img := range images {
		for _, st := range img {
			texts[st.Prog] = st.Prog.Serialize()
		}
	}
	plain, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sourced, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var prev []seedpool.SeedState
	for i, img := range images {
		for _, capacity := range []int{0, 7} {
			want := Merge(capacity, prev, img)
			if got := MergeTexts(source, capacity, prev, img); !reflect.DeepEqual(got, want) {
				t.Fatalf("image %d cap %d: MergeTexts differs from Merge", i, capacity)
			}
		}
		merged := Merge(10, prev, img)
		if err := plain.Save(merged, i); err != nil {
			t.Fatal(err)
		}
		m, err := sourced.SaveTexts(source, merged, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("image %d: SaveTexts returned %+v, Save wrote %+v", i, m, want)
		}
		a, _ := os.ReadFile(filepath.Join(plain.Dir(), manifestName))
		b, _ := os.ReadFile(filepath.Join(sourced.Dir(), manifestName))
		if !bytes.Equal(a, b) {
			t.Fatalf("image %d: manifests differ:\n%s\n%s", i, a, b)
		}
		if fa, fb := progFiles(t, plain.Dir()), progFiles(t, sourced.Dir()); !reflect.DeepEqual(fa, fb) {
			t.Fatalf("image %d: file sets differ: %v vs %v", i, fa, fb)
		}
		prev = merged
	}
}
