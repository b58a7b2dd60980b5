package nsg

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
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

// savedShards builds and saves the 3-shard index the release tests map,
// and returns its dataset, the file's resolved path and its bytes.
func savedShards(t *testing.T) (dataset.Dataset, string, []byte) {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: 2400, Queries: 1, GTK: 1, Dim: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: 3, Shard: shardTestOptions})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := built.Save(path); err != nil {
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
	return ds, path, file
}

// releasedBound is the bytes of file's mapping that may stay resident once
// every shard has released its record: the file's pages less each record's
// whole pages (the header, the id maps and the pages records share with
// their neighbours stay).
func releasedBound(file []byte, shards int) int64 {
	page := int64(os.Getpagesize())
	allowed := (int64(len(file)) + page - 1) / page * page
	for sh := range shards {
		entry := file[smHeaderSize+sh*smShardEntrySize:]
		off := int64(binary.LittleEndian.Uint64(entry[16:]))
		end := off + int64(binary.LittleEndian.Uint64(entry[24:]))
		allowed -= max(0, end/page*page-(off+page-1)/page*page)
	}
	return allowed
}

// writeOnePerShard inserts a copy of each shard's navigating vector, which
// routes to that shard, so every shard takes exactly one write.
func writeOnePerShard(t *testing.T, x *Index) {
	t.Helper()
	for sh, shard := range x.s.shards {
		gid, err := x.Add(slices.Clone(shard.Base.Row(int(shard.Navigating))))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := x.s.locate(int(gid)); int(got.shard) != sh {
			t.Fatalf("insert into shard %d landed in shard %d", sh, got.shard)
		}
	}
}

// TestWrittenShardsReleaseMappedPages: a verified open reads every page
// of the file. Once each shard has taken a write, which copies its record
// out of the mapping, every whole page of every record has left the
// process's resident set, and searches of the snapshots published since
// do not fault them back; only the header, the id maps and the pages
// records share with their neighbours may stay.
func TestWrittenShardsReleaseMappedPages(t *testing.T) {
	ds, path, file := savedShards(t)
	x, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	allowed := releasedBound(file, x.Shards())
	rss, found := mappingRss(t, path)
	if !found {
		t.Fatal("the verified open holds no mapping of the file")
	}
	if rss <= allowed {
		t.Fatalf("after the verified open %d bytes are resident, want the records' pages too (> %d)", rss, allowed)
	}

	writeOnePerShard(t, x)
	x.Flush()
	// The snapshots published since read only the copies.
	for i := 0; i < ds.Base.Rows; i += 97 {
		x.SearchWithPool(ds.Base.Row(i), 10, 60)
	}
	if rss, _ = mappingRss(t, path); rss > allowed {
		t.Fatalf("after one write per shard and searches %d bytes of the mapping are resident, want at most %d", rss, allowed)
	}
}

// TestReleasedPagesStayOutUnderSearches: one goroutine searches in a loop
// from before the first write until after Flush. A shard releases its
// record when its first drain publishes, and a search loads its snapshot
// when it starts, so only the one search in flight at that instant can
// still read the shard's mapping and fault pages back. The resident bytes
// afterwards may exceed TestWrittenShardsReleaseMappedPages's bound by
// that slack: per shard, the most pages one of the loop's queries faults
// into a released mapping of that shard, measured on a copy of the file.
func TestReleasedPagesStayOutUnderSearches(t *testing.T) {
	ds, path, file := savedShards(t)
	var queries [][]float32
	for i := 0; i < ds.Base.Rows; i += 97 {
		queries = append(queries, ds.Base.Row(i))
	}

	probe := filepath.Join(filepath.Dir(path), "probe.nsg")
	if err := os.WriteFile(probe, file, 0o644); err != nil {
		t.Fatal(err)
	}
	var slack int64
	perShard := make([]int64, 3)
	for _, q := range queries {
		p, err := OpenMapped(probe, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shard := range p.s.shards {
			shard.ReleaseMapped()
		}
		prev, _ := mappingRss(t, probe)
		ctx := core.NewSearchContext()
		for sh, shard := range p.s.shards {
			shard.Query(ctx, q, core.Query{K: 10, L: 60})
			rss, _ := mappingRss(t, probe)
			perShard[sh] = max(perShard[sh], rss-prev)
			prev = rss
		}
		p.Close()
	}
	for _, b := range perShard {
		slack += b
	}

	x, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	allowed := releasedBound(file, x.Shards())
	var searched atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x.SearchWithPool(queries[i%len(queries)], 10, 60)
			searched.Add(1)
		}
	}()
	waitSearches := func(n int64) {
		for searched.Load() < n {
			runtime.Gosched()
		}
	}
	waitSearches(1)
	writeOnePerShard(t, x)
	x.Flush()
	waitSearches(searched.Load() + 2) // a search that started after Flush has finished
	close(stop)
	<-done
	rss, _ := mappingRss(t, path)
	t.Logf("%d bytes resident; bound %d + slack %d (per shard %v); %d searches", rss, allowed, slack, perShard, searched.Load())
	if rss > allowed+slack {
		t.Fatalf("after one write per shard under searches %d bytes of the mapping are resident, want at most %d + %d", rss, allowed, slack)
	}
}
