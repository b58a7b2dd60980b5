package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	nsg "repro"
)

// cluster_mix measures the real binaries: two nsgserve backends, each
// serving half the corpus as a 2-shard bundle, behind one nsgrouter. The
// harness is their only client.

// cleanups run once when the harness exits by any path it controls: a
// normal return, an error, a panic on the main goroutine, SIGINT, SIGTERM,
// SIGPIPE.
var cleanups struct {
	mu   sync.Mutex
	next int
	fns  map[int]func()
}

// atExit registers f and returns a function that runs it now instead.
func atExit(f func()) (runNow func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = map[int]func(){}
	}
	key := cleanups.next
	cleanups.next++
	cleanups.fns[key] = f
	return func() {
		cleanups.mu.Lock()
		_, pending := cleanups.fns[key]
		delete(cleanups.fns, key)
		cleanups.mu.Unlock()
		if pending {
			f()
		}
	}
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// child is one spawned server.
type child struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	kill   func() // kills the child's process group and waits; safe to repeat
}

// spawn starts bin in its own process group on one CPU, waits for its
// "listening on" line, and returns once /readyz answers 200.
func spawn(name, bin, dir string, args ...string) (*child, error) {
	stderr, err := os.Create(filepath.Join(dir, name+".stderr"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	// One runnable thread per child: with the single waiting caller, the
	// chain client -> router -> two backends never asks for more than the
	// host's two cores.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = stderr
	// Pdeathsig covers the one exit the harness cannot run code on: its
	// own SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	c.kill = atExit(func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-c.exited
	})
	listening := make(chan string, 1)
	go func() {
		defer close(c.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				listening <- addr
			}
		}
		cmd.Wait()
	}()
	select {
	case c.addr = <-listening:
	case <-c.exited:
		c.kill()
		msg, _ := os.ReadFile(stderr.Name())
		return nil, fmt.Errorf("%s exited before listening: %s", name, bytes.TrimSpace(msg))
	case <-time.After(time.Minute):
		c.kill()
		return nil, fmt.Errorf("%s did not listen within a minute", name)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + c.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("%s not ready within 30s (last error: %v)", name, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// idOffset1 is what the router adds to backend 1's ids. It leaves backend 0
// room to grow: the repo's contiguous-offset convention would make backend
// 0's first inserted id collide with backend 1's first row.
const idOffset1 = 1 << 20

type clusterSystem struct {
	r        *run
	backends [2]*child
	router   *child
	bundles  [2]string
	half     int // rows on backend 0
	client   *http.Client
	bodies   [][]byte // the /search body of each request
	buf      bytes.Buffer

	requestBytes, responseBytes, searches int
}

func startClusterMix(r *run, dir string) (_ *built, err error) {
	s := &clusterSystem{
		r: r, half: r.n / 2,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	b := &built{sys: s, artefactRows: r.n}
	for i, sp := range [2][2]int{{0, s.half}, {s.half, r.n}} {
		opts := nsg.DefaultShardedOptions(2)
		opts.Shard = buildOptions(r.cfg.seed, nsg.QuantNone)
		data := append([]float32(nil), r.c.base[sp[0]*dim:sp[1]*dim]...)
		start := time.Now()
		idx, err := nsg.BuildShardedFromFlat(data, dim, opts)
		b.buildSeconds += time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		m, err := metadata(r.c, sp[0], sp[1])
		if err == nil {
			err = idx.SetMetadata(m)
		}
		s.bundles[i] = filepath.Join(dir, fmt.Sprintf("backend%d.nsgd", i))
		var size int64
		if err == nil {
			_, size, err = saved(s.bundles[i], idx.Save)
		}
		idx.Close()
		if err != nil {
			return nil, err
		}
		b.artefactBytes += size
	}
	for i := range s.backends {
		if s.backends[i], err = spawn(fmt.Sprint("nsgserve", i), filepath.Join(r.cfg.bindir, "nsgserve"), dir,
			"-index", s.bundles[i], "-k", fmt.Sprint(topK), "-l", fmt.Sprint(searchL)); err != nil {
			return nil, err
		}
	}
	topology := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topology, fmt.Appendf(nil,
		`{"shards":[{"replicas":[%q],"id_offset":0},{"replicas":[%q],"id_offset":%d}]}`,
		s.backends[0].addr, s.backends[1].addr, idOffset1), 0o644); err != nil {
		return nil, err
	}
	if s.router, err = spawn("nsgrouter", filepath.Join(r.cfg.bindir, "nsgrouter"), dir, "-topology", topology); err != nil {
		return nil, err
	}

	r.baseRow = func(id int32) int {
		switch {
		case id >= 0 && int(id) < s.half:
			return int(id)
		case id >= idOffset1 && int(id-idOffset1) < r.n-s.half:
			return s.half + int(id-idOffset1)
		}
		return -1
	}
	s.bodies = make([][]byte, len(r.reqs))
	for i := range r.reqs {
		s.bodies[i] = searchBody(r, &r.reqs[i])
	}
	return b, nil
}

// searchBody is the JSON a client posts to /search for q.
func searchBody(r *run, q *request) []byte {
	body := map[string]any{"query": row(r.c.queries, q.query), "k": topK, "l": searchL}
	if q.class == classF10 {
		body["filter"] = map[string]any{"col": "category", "eq": categoryName(q.category)}
	}
	blob, err := json.Marshal(body)
	if err != nil {
		panic(err) // floats, ints and strings always marshal
	}
	return blob
}

func (s *clusterSystem) pids() []int {
	return []int{s.backends[0].cmd.Process.Pid, s.backends[1].cmd.Process.Pid, s.router.cmd.Process.Pid}
}

func (s *clusterSystem) close() {
	for _, c := range []*child{s.router, s.backends[0], s.backends[1]} {
		if c != nil {
			c.kill()
		}
	}
	s.client.CloseIdleConnections()
}

// post sends body and returns the response body, valid until the next call.
func (s *clusterSystem) post(addr, path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.buf.Reset()
	if _, err := io.Copy(&s.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: status %d: %s", addr, path, resp.StatusCode, bytes.TrimSpace(s.buf.Bytes()))
	}
	return s.buf.Bytes(), nil
}

type searchReply struct {
	IDs      []int32   `json:"ids"`
	Dists    []float32 `json:"dists"`
	Degraded bool      `json:"degraded"`
}

// search posts request req's body to addr and decodes the reply into ans.
func (s *clusterSystem) search(addr string, req int, ans *answer) error {
	blob, err := s.post(addr, "/search", s.bodies[req])
	if err != nil {
		return err
	}
	s.requestBytes += len(s.bodies[req])
	s.responseBytes += len(blob)
	s.searches++
	var reply searchReply
	if err := json.Unmarshal(blob, &reply); err != nil {
		return fmt.Errorf("%s/search: %w", addr, err)
	}
	if reply.Degraded {
		return fmt.Errorf("%s/search: degraded answer", addr)
	}
	ans.ids, ans.dists = reply.IDs, reply.Dists
	return nil
}

func (s *clusterSystem) do(o op, index int, ans *answer, tr *tracer, parent int32) error {
	switch o.kind {
	case opSearch:
		sp := tr.begin("nsgrouter.request", index, parent)
		err := s.search(s.router.addr, int(o.arg), ans)
		tr.end(sp)
		return err
	case opInsert:
		// The router has no write path: a client inserts at the backend
		// that owns the row, here the two in turn.
		backend := int(o.arg) % 2
		v := row(s.r.c.reserve, int(o.arg))
		body, err := json.Marshal(map[string]any{"vector": v})
		if err != nil {
			return err
		}
		sp := tr.begin("nsgserve.insert", index, parent)
		blob, err := s.post(s.backends[backend].addr, "/insert", body)
		tr.end(sp)
		if err != nil {
			return err
		}
		var reply struct {
			ID int32 `json:"id"`
		}
		if err := json.Unmarshal(blob, &reply); err != nil {
			return err
		}
		id := reply.ID + int32(backend)*idOffset1
		if s.r.vec(id) != nil {
			return fmt.Errorf("/insert returned id %d, which is already in use", reply.ID)
		}
		s.r.extra[id] = v
		return nil
	}
	return fmt.Errorf("op kind %d is not one cluster_mix issues", o.kind)
}

// direct sends request req to both backends, bypassing the router, and
// returns their answers merged the way the router must merge them, with
// the slower backend's latency.
func (s *clusterSystem) direct(req int) (answer, time.Duration, error) {
	type hit struct {
		id int32
		d  float32
	}
	var all []hit
	var slowest time.Duration
	for b, c := range s.backends {
		var ans answer
		start := time.Now()
		if err := s.search(c.addr, req, &ans); err != nil {
			return answer{}, 0, err
		}
		slowest = max(slowest, time.Since(start))
		for i, id := range ans.ids {
			all = append(all, hit{id + int32(b)*idOffset1, ans.dists[i]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].d < all[j].d })
	var merged answer
	for _, h := range all[:min(topK, len(all))] {
		merged.ids, merged.dists = append(merged.ids, h.id), append(merged.dists, h.d)
	}
	return merged, slowest, nil
}

// verify checks the router's answer to req against the merged answers of
// the backends asked directly.
func (s *clusterSystem) verify(req int, got *answer) error {
	want, _, err := s.direct(req)
	if err != nil {
		return err
	}
	return sameAnswer(got, &want)
}

// sameAnswer compares distances exactly and ids as sets per distance, since
// rows at equal distance may be merged in either order.
func sameAnswer(got, want *answer) error {
	if len(got.ids) != len(want.ids) {
		return fmt.Errorf("router returned %d results, the backends merge to %d", len(got.ids), len(want.ids))
	}
	for i := range got.dists {
		if got.dists[i] != want.dists[i] {
			return fmt.Errorf("router result %d at distance %v, the backends merge to %v", i, got.dists[i], want.dists[i])
		}
	}
	for i, id := range got.ids {
		found := false
		for j, w := range want.ids {
			found = found || (w == id && want.dists[j] == got.dists[i])
		}
		// An id may legitimately differ only where the cut at k fell
		// among rows at the same distance.
		if !found && got.dists[i] != got.dists[len(got.dists)-1] {
			return fmt.Errorf("router result %d is id %d, which the backends' merged answer lacks", i, id)
		}
	}
	return nil
}

// stats fetches a server's /stats into v.
func (s *clusterSystem) stats(addr string, v any) error {
	resp, err := s.client.Get("http://" + addr + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
