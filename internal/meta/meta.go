// Package meta is the metadata column store behind filtered search: typed
// attribute columns (int64, string enum, tag sets) keyed by public id, a
// small predicate language (equality, range, set membership, tag
// containment, AND/OR), and predicate → bitmap compilation. The compiled
// bitmap is what the filtered Algorithm 1 traversal consumes: one bit per
// public id, set when the point passes the predicate.
//
// Concurrency contract: reads (Compile, Matches, Rows, column accessors)
// are lock-free and may run concurrently with AppendRow. The store
// publishes immutable views through one atomic pointer — the same
// snapshot discipline the live-update subsystem uses for graphs — so a
// reader sees a consistent row count and consistent column contents, never
// a torn append. AppendRow and column registration serialize on an
// internal mutex.
package meta

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// ColType identifies a column's value type.
type ColType uint8

const (
	// TypeInt64 stores one signed 64-bit integer per row (prices,
	// timestamps, tenant ids). Rows appended without a value hold 0.
	TypeInt64 ColType = iota + 1
	// TypeEnum stores one string per row, dictionary-encoded (categories,
	// languages). Rows appended without a value hold the missing code and
	// match no predicate.
	TypeEnum
	// TypeTags stores a set of strings per row, dictionary-encoded in CSR
	// form (labels, capabilities). Rows appended without a value hold the
	// empty set.
	TypeTags
)

func (t ColType) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeEnum:
		return "enum"
	case TypeTags:
		return "tags"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// missingCode marks an enum row with no value; it never matches.
const missingCode = int32(-1)

// column is one typed column. Columns are held by value inside a view so
// an append (which may reallocate the backing arrays) publishes fresh
// slice headers instead of racing readers on shared ones.
type column struct {
	name string
	typ  ColType

	ints  []int64  // TypeInt64: value per row
	codes []int32  // TypeEnum: dict code per row (missingCode = no value)
	offs  []int32  // TypeTags: CSR offsets, len rows+1
	tags  []int32  // TypeTags: concatenated sorted dict codes
	dict  []string // TypeEnum / TypeTags: code → string
}

// code returns the dictionary code of s in c.dict, or missingCode. Linear
// scan: dictionaries are small (categories, labels) and this runs at
// compile time, not per traversal step.
func (c *column) code(s string) int32 {
	for i, d := range c.dict {
		if d == s {
			return int32(i)
		}
	}
	return missingCode
}

// view is one immutable published state of the store.
type view struct {
	rows int
	cols []column
}

func (v *view) col(name string) *column {
	for i := range v.cols {
		if v.cols[i].name == name {
			return &v.cols[i]
		}
	}
	return nil
}

// Store is a set of typed metadata columns over rows [0, Rows), keyed by
// public id. The zero value is not usable; call New.
type Store struct {
	mu      sync.Mutex // serializes AppendRow and column registration
	v       atomic.Pointer[view]
	dictIdx map[string]map[string]int32 // column → value → code, writer-side only
}

// New returns an empty store expecting rows rows in every column added.
func New(rows int) *Store {
	if rows < 0 {
		rows = 0
	}
	s := &Store{dictIdx: make(map[string]map[string]int32)}
	s.v.Store(&view{rows: rows})
	return s
}

// Rows returns the published row count.
func (s *Store) Rows() int { return s.v.Load().rows }

// Cols returns the column names in registration order.
func (s *Store) Cols() []string {
	v := s.v.Load()
	out := make([]string, len(v.cols))
	for i := range v.cols {
		out[i] = v.cols[i].name
	}
	return out
}

// ColType returns the type of the named column and whether it exists.
func (s *Store) ColType(name string) (ColType, bool) {
	if c := s.v.Load().col(name); c != nil {
		return c.typ, true
	}
	return 0, false
}

func (s *Store) addColumn(c column) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addColumnLocked(c)
}

// addColumnLocked publishes a new column. Caller holds s.mu, so the
// dictionary-carrying registrations (AddEnum, AddTags) can store their dict
// index in the same critical section — a concurrent AppendRow must never
// observe the column without its index, or it would rebuild one whose new
// entries the registration's subsequent store would drop.
func (s *Store) addColumnLocked(c column) error {
	v := s.v.Load()
	if v.col(c.name) != nil {
		return fmt.Errorf("meta: duplicate column %q", c.name)
	}
	if c.name == "" {
		return fmt.Errorf("meta: empty column name")
	}
	nv := &view{rows: v.rows, cols: append(append([]column(nil), v.cols...), c)}
	s.v.Store(nv)
	return nil
}

// AddInt64 registers an int64 column with one value per row.
func (s *Store) AddInt64(name string, values []int64) error {
	if len(values) != s.Rows() {
		return fmt.Errorf("meta: column %q has %d values, store has %d rows", name, len(values), s.Rows())
	}
	return s.addColumn(column{name: name, typ: TypeInt64, ints: append([]int64(nil), values...)})
}

// AddEnum registers a dictionary-encoded string column with one value per
// row. The empty string is a valid value.
func (s *Store) AddEnum(name string, values []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rows := s.v.Load().rows; len(values) != rows {
		return fmt.Errorf("meta: column %q has %d values, store has %d rows", name, len(values), rows)
	}
	idx := make(map[string]int32)
	c := column{name: name, typ: TypeEnum, codes: make([]int32, len(values))}
	for i, val := range values {
		code, ok := idx[val]
		if !ok {
			code = int32(len(c.dict))
			c.dict = append(c.dict, val)
			idx[val] = code
		}
		c.codes[i] = code
	}
	if err := s.addColumnLocked(c); err != nil {
		return err
	}
	s.dictIdx[name] = idx
	return nil
}

// AddTags registers a tag-set column with one (possibly empty) set per
// row. Each row's tags are dictionary-encoded and stored sorted, so
// containment tests are a binary search.
func (s *Store) AddTags(name string, values [][]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rows := s.v.Load().rows; len(values) != rows {
		return fmt.Errorf("meta: column %q has %d rows, store has %d", name, len(values), rows)
	}
	idx := make(map[string]int32)
	c := column{name: name, typ: TypeTags, offs: make([]int32, 1, len(values)+1)}
	for _, set := range values {
		row := make([]int32, 0, len(set))
		for _, tag := range set {
			code, ok := idx[tag]
			if !ok {
				code = int32(len(c.dict))
				c.dict = append(c.dict, tag)
				idx[tag] = code
			}
			row = append(row, code)
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		c.tags = append(c.tags, row...)
		c.offs = append(c.offs, int32(len(c.tags)))
	}
	if err := s.addColumnLocked(c); err != nil {
		return err
	}
	s.dictIdx[name] = idx
	return nil
}

// AppendRow extends every column by one row and publishes the grown view.
// values maps column name → value (int64-kinds for TypeInt64, string for
// TypeEnum, []string for TypeTags); columns absent from the map get the
// missing value (0 / no enum value / empty set). Unknown column names and
// mistyped values are errors and nothing is appended. Safe concurrently
// with reads; appends serialize with each other.
func (s *Store) AppendRow(values map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setRowLocked(s.v.Load().rows, values)
}

// SetRow writes values as row row, which must not exist yet: rows between
// the current count and row are first appended with the missing value in
// every column, so a row always lands under the id it describes. Errors
// and concurrency are as for AppendRow.
func (s *Store) SetRow(row int, values map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setRowLocked(row, values)
}

// CheckRow returns the error AppendRow or SetRow would reject values with,
// so a caller can validate a row before committing anything it describes.
func (s *Store) CheckRow(values map[string]any) error { return checkRow(s.v.Load(), values) }

// checkRow validates every value against v's columns. Interning commits
// codes into s.dictIdx (and the shared dict backing arrays), so an error
// discovered after a column has interned would leave codes behind that the
// published view never learns about — later appends of the same value
// would reuse a code past the published dictionary and silently fail every
// predicate (and break encoding). Checking types up front makes the append
// loop infallible.
func checkRow(v *view, values map[string]any) error {
	for name, val := range values {
		c := v.col(name)
		if c == nil {
			return fmt.Errorf("meta: append: unknown column %q", name)
		}
		switch c.typ {
		case TypeInt64:
			if _, ok := asInt64(val); !ok {
				return fmt.Errorf("meta: append: column %q wants an integer, got %T", name, val)
			}
		case TypeEnum:
			if _, ok := val.(string); !ok {
				return fmt.Errorf("meta: append: column %q wants a string, got %T", name, val)
			}
		case TypeTags:
			if _, ok := asStrings(val); !ok {
				return fmt.Errorf("meta: append: column %q wants a string set, got %T", name, val)
			}
		}
	}
	return nil
}

func (s *Store) setRowLocked(row int, values map[string]any) error {
	v := s.v.Load()
	if row < v.rows {
		return fmt.Errorf("meta: row %d already written (store has %d rows)", row, v.rows)
	}
	if err := checkRow(v, values); err != nil {
		return err
	}
	nv := &view{rows: row + 1, cols: append([]column(nil), v.cols...)}
	for i := range nv.cols {
		c := &nv.cols[i]
		for r := v.rows; r < row; r++ {
			s.appendLocked(c, nil, false)
		}
		val, ok := values[c.name]
		s.appendLocked(c, val, ok)
	}
	s.v.Store(nv)
	return nil
}

// appendLocked extends c by one row holding val, or the missing value when
// !ok. val has passed checkRow. Caller holds s.mu; c is the writer's copy.
func (s *Store) appendLocked(c *column, val any, ok bool) {
	switch c.typ {
	case TypeInt64:
		n := int64(0)
		if ok {
			n, _ = asInt64(val)
		}
		c.ints = append(c.ints, n)
	case TypeEnum:
		code := missingCode
		if ok {
			code = s.internLocked(c, val.(string))
		}
		c.codes = append(c.codes, code)
	case TypeTags:
		if ok {
			set, _ := asStrings(val)
			row := make([]int32, 0, len(set))
			for _, tag := range set {
				row = append(row, s.internLocked(c, tag))
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			c.tags = append(c.tags, row...)
		}
		c.offs = append(c.offs, int32(len(c.tags)))
	}
}

// internLocked returns the dictionary code for val in c, adding it if new.
// Caller holds s.mu; c is the writer's private copy of the column.
func (s *Store) internLocked(c *column, val string) int32 {
	idx := s.dictIdx[c.name]
	if idx == nil {
		idx = make(map[string]int32, len(c.dict))
		for i, d := range c.dict {
			idx[d] = int32(i)
		}
		s.dictIdx[c.name] = idx
	}
	code, ok := idx[val]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, val)
		idx[val] = code
	}
	return code
}

func asInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case uint32:
		return int64(n), true
	case float64: // JSON numbers decode as float64
		if n == float64(int64(n)) {
			return int64(n), true
		}
	}
	return 0, false
}

func asStrings(v any) ([]string, bool) {
	switch set := v.(type) {
	case []string:
		return set, true
	case []any:
		out := make([]string, len(set))
		for i, e := range set {
			s, ok := e.(string)
			if !ok {
				return nil, false
			}
			out[i] = s
		}
		return out, true
	}
	return nil, false
}

// Select builds a new store holding the rows that survive a compaction:
// remap[old] is a surviving row's new index, or -1 for dropped rows. New
// indices no remap entry points at (rows the source store never described)
// get the missing value in every column. Dictionaries carry over unchanged
// (codes are stable; dropped rows may leave unused entries, which is
// harmless and keeps Select O(rows)).
func (s *Store) Select(remap []int32, newRows int) *Store {
	v := s.v.Load()
	inv := make([]int32, newRows) // new index → old row, -1 = no source row
	for i := range inv {
		inv[i] = -1
	}
	for old, nw := range remap {
		if nw >= 0 && int(nw) < newRows {
			inv[nw] = int32(old)
		}
	}
	ns := New(newRows)
	for _, c := range v.cols {
		nc := column{name: c.name, typ: c.typ, dict: c.dict}
		switch c.typ {
		case TypeInt64:
			nc.ints = make([]int64, newRows)
			for nw, old := range inv {
				if old >= 0 {
					nc.ints[nw] = c.ints[old]
				}
			}
		case TypeEnum:
			nc.codes = make([]int32, newRows)
			for nw, old := range inv {
				if old >= 0 {
					nc.codes[nw] = c.codes[old]
				} else {
					nc.codes[nw] = missingCode
				}
			}
		case TypeTags:
			nc.offs = make([]int32, 1, newRows+1)
			for _, old := range inv {
				if old >= 0 {
					nc.tags = append(nc.tags, c.tags[c.offs[old]:c.offs[old+1]]...)
				}
				nc.offs = append(nc.offs, int32(len(nc.tags)))
			}
		}
		if err := ns.addColumn(nc); err != nil {
			// Unreachable: names were unique in the source store.
			panic(err)
		}
	}
	return ns
}

// BitsLen returns the []uint64 length needed for a bitmap over rows rows.
func BitsLen(rows int) int { return (rows + 63) / 64 }

// CountBits popcounts bits over [0, rows).
func CountBits(bitset []uint64, rows int) int {
	if rows < 0 {
		rows = 0
	}
	full := rows / 64
	if full > len(bitset) {
		full = len(bitset)
	}
	n := 0
	for _, w := range bitset[:full] {
		n += bits.OnesCount64(w)
	}
	if tail := rows % 64; tail != 0 && full < len(bitset) {
		n += bits.OnesCount64(bitset[full] & (1<<uint(tail) - 1))
	}
	return n
}
