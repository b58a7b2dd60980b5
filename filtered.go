package nsg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/meta"
)

// Predicate-aware ("filtered") search: attach a metadata column store to an
// index, compile a predicate into a Filter once, and search under it —
// results contain only passing points, found by whichever is cheaper for the
// query: an exact scan of the passing rows, or a graph-guided two-pool
// traversal that never post-filters (see the README's "Filtered search"
// section and ARCHITECTURE.md, "Filtered plan", for the cost model and its
// crossover).
//
// One predicate compiles into one GLOBAL-id-keyed bitmap, which
// CompileFilter scatters into one bitmap per shard keyed by the shard's own
// ids — the id space a shard's pass test works in — so every shard runs the
// same plan choice and the same word-at-a-time scan as an unsharded index,
// and the sharded filtered answer is the merge of per-shard filtered
// answers.

// Predicate is a metadata predicate tree: Eq / Range / In / HasTag leaves
// combined with And / Or. The zero value matches every row.
type Predicate = meta.Predicate

// Metadata is a typed metadata column store keyed by vector id: int64
// columns (prices, timestamps, tenant ids), dictionary-encoded string enum
// columns (categories), and tag-set columns (labels). Reads — including
// filter compilation — are lock-free and safe concurrently with AppendRow
// and SetRow.
type Metadata = meta.Store

// NewMetadata returns an empty metadata store expecting rows rows in every
// column added. Build columns with AddInt64, AddEnum and AddTags, then
// attach the store with Index.SetMetadata.
func NewMetadata(rows int) *Metadata { return meta.New(rows) }

// Eq matches rows whose column equals value: an integer kind for int64
// columns, a string for enum columns.
func Eq(col string, value any) Predicate { return meta.Eq(col, value) }

// Range matches rows of an int64 column with lo <= value <= hi.
func Range(col string, lo, hi int64) Predicate { return meta.Range(col, lo, hi) }

// In matches rows whose column value equals any of the given values.
func In(col string, values ...any) Predicate { return meta.In(col, values...) }

// HasTag matches rows of a tag-set column containing the given tag.
func HasTag(col, tag string) Predicate { return meta.HasTag(col, tag) }

// And matches rows passing every child predicate.
func And(ps ...Predicate) Predicate { return meta.And(ps...) }

// Or matches rows passing at least one child predicate.
func Or(ps ...Predicate) Predicate { return meta.Or(ps...) }

// ErrNoMetadata is returned by CompileFilter on an index with no attached
// metadata store.
var ErrNoMetadata = errors.New("nsg: index has no metadata store")

// SetMetadata attaches a metadata store to the index. The store must have
// exactly one row per indexed vector (row i describes the vector with id
// i); Save persists it, and Load and OpenMapped restore it.
// Points added after attachment without a metadata row (plain Add) fail
// every filter, and the files store missing rows for them;
// AddWithMetadata writes each row under its vector's id.
func (x *Index) SetMetadata(m *Metadata) error {
	if m != nil && m.Rows() != x.Len() {
		return fmt.Errorf("nsg: metadata has %d rows, index has %d vectors", m.Rows(), x.Len())
	}
	x.s.meta = m
	return nil
}

// Metadata returns the attached metadata store, or nil.
func (x *Index) Metadata() *Metadata { return x.s.meta }

// AddWithMetadata is Add plus one metadata row: the vector and its
// attributes land under the same id. row maps column name → value (integer
// kinds for int64 columns, string for enum, []string for tags); absent
// columns get the missing value. Requires an attached metadata store. A row
// the store would reject is an error before the vector is added, and rows
// of ids added without one (plain Add) are filled with missing values.
// Safe from any goroutine, like Add.
func (x *Index) AddWithMetadata(vec []float32, row map[string]any) (int32, error) {
	m := x.s.meta
	if m == nil {
		return -1, ErrNoMetadata
	}
	if err := m.CheckRow(row); err != nil {
		return -1, fmt.Errorf("nsg: metadata row rejected: %w", err)
	}
	// One writer at a time from id to row: ids are handed out in order, so
	// every row lands past the store's end.
	x.metaMu.Lock()
	defer x.metaMu.Unlock()
	id, err := x.Add(vec)
	if err != nil {
		return id, err
	}
	if err := m.SetRow(int(id), row); err != nil {
		return id, fmt.Errorf("nsg: vector %d added but metadata row rejected: %w", id, err)
	}
	return id, nil
}

// Filter is one compiled predicate, ready for any number of searches on the
// index that compiled it: the global bitmap, scattered into each shard's
// own ids with a passing count per shard (a shard with no passing rows is
// never searched; the only shard of a one-shard index uses the global
// bitmap as it is). The bitmap is fixed at
// compile time: points added later fail it (compile a fresh filter to
// include them), while deletes are honored at search time either way.
// Compile once per predicate and reuse — compilation is O(rows), a filtered
// search is not. A Filter is read-only after CompileFilter.
type Filter struct {
	count  int           // total passing rows across all shards
	shards []core.Filter // per shard: its bitmap in its own ids and its count
}

// ShardedFilter is the name Filter had on a sharded index; see Filter.
type ShardedFilter = Filter

// Count returns the number of points passing the filter (at compile time).
func (f *Filter) Count() int { return f.count }

// CompileFilter compiles a predicate against the index's metadata store
// into a reusable Filter. Returns ErrNoMetadata when no store is attached;
// unknown columns and mistyped operands are errors. The bitmap is freshly
// allocated (sized and compiled against one consistent store view, so
// concurrent appends cannot fail the compilation), and its set bits are
// scattered through the locator into one bitmap per shard, so the cost
// follows the passing rows. A shard that keeps no translate table (the only
// shard of a one-shard index) shares the global bitmap as it is.
func (x *Index) CompileFilter(p Predicate) (*Filter, error) {
	s := x.s
	if s.meta == nil {
		return nil, ErrNoMetadata
	}
	set, count, err := s.meta.CompileAlloc(p)
	if err != nil {
		return nil, err
	}
	f := &Filter{count: count, shards: make([]core.Filter, len(s.handles))}
	if len(s.handles) == 1 && s.handles[0].Translate() == nil {
		f.shards[0] = core.Filter{Bits: set, Count: count}
		return f, nil
	}
	// Located rows never move, so the locator read under mu stays valid;
	// every local id it holds is below its shard's Len read with it.
	s.mu.Lock()
	loc := s.loc
	for sh, h := range s.handles {
		f.shards[sh].Bits = make([]uint64, (h.Len()+63)>>6)
	}
	s.mu.Unlock()
	for wi, w := range set[:min(len(set), (len(loc)+63)>>6)] {
		for ; w != 0; w &= w - 1 {
			g := wi<<6 + bits.TrailingZeros64(w)
			if g >= len(loc) {
				break
			}
			l := loc[g]
			sf := &f.shards[l.shard]
			sf.Bits[l.local>>6] |= 1 << uint(l.local&63)
			sf.Count++
		}
	}
	return f, nil
}

// predClause is the JSON wire form of one predicate node. Exactly one
// operator field must be present:
//
//	{"col":"category","eq":"shoes"}
//	{"col":"price","range":[1000,4999]}
//	{"col":"category","in":["shoes","boots"]}
//	{"col":"tags","has_tag":"sale"}
//	{"and":[<clause>,...]}   {"or":[<clause>,...]}
type predClause struct {
	Col    string            `json:"col,omitempty"`
	Eq     any               `json:"eq,omitempty"`
	Range  []int64           `json:"range,omitempty"`
	In     []any             `json:"in,omitempty"`
	HasTag *string           `json:"has_tag,omitempty"`
	And    []json.RawMessage `json:"and,omitempty"`
	Or     []json.RawMessage `json:"or,omitempty"`
}

// Wire-form predicate limits. Every clause compiles to an O(rows) bitmap
// pass, so an unbounded and/or array in a request body would be a cheap CPU
// amplification vector against the serving tier (each clause forces a full
// metadata scan, fanned to every shard). The caps are far above any sane
// filter while keeping the worst-case request body a small constant amount
// of per-request work.
const (
	// MaxPredicateClauses bounds the total clause count (leaves plus
	// and/or nodes) UnmarshalPredicate accepts in one filter.
	MaxPredicateClauses = 64
	// MaxPredicateDepth bounds and/or nesting depth.
	MaxPredicateDepth = 8
)

// UnmarshalPredicate parses the JSON clause form used by the serving tier
// (cmd/nsgserve request bodies) into a Predicate. See predClause for the
// syntax; nesting is bounded by MaxPredicateDepth and the total clause
// count by MaxPredicateClauses.
func UnmarshalPredicate(data []byte) (Predicate, error) {
	clauses := 0
	return unmarshalPredicate(data, 1, &clauses)
}

func unmarshalPredicate(data []byte, depth int, clauses *int) (Predicate, error) {
	if depth > MaxPredicateDepth {
		return Predicate{}, fmt.Errorf("nsg: filter nesting exceeds %d levels", MaxPredicateDepth)
	}
	*clauses++
	if *clauses > MaxPredicateClauses {
		return Predicate{}, fmt.Errorf("nsg: filter exceeds %d clauses", MaxPredicateClauses)
	}
	var c predClause
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Predicate{}, fmt.Errorf("nsg: filter clause: %w", err)
	}
	ops := 0
	for _, set := range []bool{c.Eq != nil, c.Range != nil, c.In != nil, c.HasTag != nil, c.And != nil, c.Or != nil} {
		if set {
			ops++
		}
	}
	if ops != 1 {
		return Predicate{}, fmt.Errorf("nsg: filter clause needs exactly one of eq/range/in/has_tag/and/or, has %d", ops)
	}
	switch {
	case c.Eq != nil:
		return Eq(c.Col, c.Eq), nil
	case c.Range != nil:
		if len(c.Range) != 2 {
			return Predicate{}, fmt.Errorf("nsg: range wants [lo,hi], got %d values", len(c.Range))
		}
		return Range(c.Col, c.Range[0], c.Range[1]), nil
	case c.In != nil:
		return In(c.Col, c.In...), nil
	case c.HasTag != nil:
		return HasTag(c.Col, *c.HasTag), nil
	case c.And != nil:
		kids, err := unmarshalClauses(c.And, depth, clauses)
		if err != nil {
			return Predicate{}, err
		}
		return And(kids...), nil
	default:
		kids, err := unmarshalClauses(c.Or, depth, clauses)
		if err != nil {
			return Predicate{}, err
		}
		return Or(kids...), nil
	}
}

func unmarshalClauses(raw []json.RawMessage, depth int, clauses *int) ([]Predicate, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("nsg: and/or wants at least one clause")
	}
	kids := make([]Predicate, len(raw))
	for i, r := range raw {
		p, err := unmarshalPredicate(r, depth+1, clauses)
		if err != nil {
			return nil, err
		}
		kids[i] = p
	}
	return kids, nil
}
