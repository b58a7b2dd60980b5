package distsearch

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// mappingRss returns the resident bytes of this process's mappings of
// path, read from /proc/self/smaps, and whether any mapping of it exists.
func mappingRss(t *testing.T, path string) (int64, bool) {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rss int64
	found, in := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if !strings.HasSuffix(fields[0], ":") { // a mapping's first line
			in = len(fields) >= 6 && fields[5] == path
			found = found || in
			continue
		}
		if in && fields[0] == "Rss:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			rss += kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rss, found
}

// TestWrittenShardsReleaseMappedPages: a verified open reads every page
// of the file. Once each shard has taken a write, which copies its record
// out of the mapping, every whole page of every record has left the
// process's resident set, and searches of the snapshots published since
// do not fault them back; only the header, the id maps and the pages
// records share with their neighbours may stay.
func TestWrittenShardsReleaseMappedPages(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 2400, Queries: 1, GTK: 1, Dim: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(3)
	p.UseNNDescent = false
	built, err := BuildSharded(ds.Base, p)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := built.Save(path, FileOptions{}); err != nil {
		t.Fatal(err)
	}
	if path, err = filepath.EvalSymlinks(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(file) < 1<<20 {
		t.Fatalf("the file is %d bytes, want at least 1 MiB", len(file))
	}
	s, _, err := OpenMapped(path, core.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The bytes that may stay resident: the file's pages less each record's
	// whole pages.
	page := int64(os.Getpagesize())
	allowed := (int64(len(file)) + page - 1) / page * page
	for sh := range s.Shards() {
		entry := file[smHeaderSize+sh*smShardEntrySize:]
		off := int64(binary.LittleEndian.Uint64(entry[16:]))
		end := off + int64(binary.LittleEndian.Uint64(entry[24:]))
		allowed -= max(0, end/page*page-(off+page-1)/page*page)
	}
	rss, found := mappingRss(t, path)
	if !found {
		t.Fatal("the verified open holds no mapping of the file")
	}
	if rss <= allowed {
		t.Fatalf("after the verified open %d bytes are resident, want the records' pages too (> %d)", rss, allowed)
	}

	for sh := range s.Shards() {
		// A copy of a shard's navigating vector routes to that shard.
		x := s.Shard(sh)
		vec := slices.Clone(x.Base.Row(int(x.Navigating)))
		if _, got, err := s.Insert(vec); err != nil || got != sh {
			t.Fatalf("insert into shard %d landed in shard %d (%v)", sh, got, err)
		}
	}
	s.Flush()
	// The snapshots published since read only the copies.
	for i := 0; i < ds.Base.Rows; i += 97 {
		s.Search(nil, ds.Base.Row(i), 10, 60, nil, nil)
	}
	if rss, _ = mappingRss(t, path); rss > allowed {
		t.Fatalf("after one write per shard and searches %d bytes of the mapping are resident, want at most %d", rss, allowed)
	}
}
