package meta

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// predOp enumerates predicate node kinds.
type predOp uint8

const (
	opNone predOp = iota
	opEq
	opRange
	opIn
	opHasTag
	opAnd
	opOr
)

// Predicate is one node of a filter expression over a Store's columns.
// Build predicates with Eq, Range, In, HasTag, And and Or; compile them
// against a store with Store.Compile. The zero Predicate matches no rows.
type Predicate struct {
	op  predOp
	col string
	str string // Eq (string), HasTag
	num int64  // Eq (integer)
	// isStr records whether Eq/In carried string or integer operands; a
	// mismatch against the column type is a compile-time error, not a
	// silent empty result.
	isStr bool
	// badOp marks an Eq/In built from an unsupported operand type (str
	// holds the offending type's name) so the error surfaces at compile
	// time. A flag rather than a sentinel value: any string, including any
	// control-character one, is a legitimate operand.
	badOp  bool
	lo, hi int64 // Range, inclusive
	strs   []string
	nums   []int64
	kids   []Predicate
}

// Eq matches rows whose column equals value. value must be a string (for
// enum columns) or an integer kind (for int64 columns); anything else
// fails at compile time.
func Eq(col string, value any) Predicate {
	if s, ok := value.(string); ok {
		return Predicate{op: opEq, col: col, str: s, isStr: true}
	}
	if n, ok := asInt64(value); ok {
		return Predicate{op: opEq, col: col, num: n}
	}
	return Predicate{op: opEq, col: col, str: fmt.Sprintf("%T", value), badOp: true}
}

// Range matches rows whose int64 column value lies in [lo, hi], inclusive.
func Range(col string, lo, hi int64) Predicate {
	return Predicate{op: opRange, col: col, lo: lo, hi: hi}
}

// In matches rows whose column equals any of values (strings for enum
// columns, integer kinds for int64 columns; mixing is an error).
func In(col string, values ...any) Predicate {
	p := Predicate{op: opIn, col: col}
	for _, v := range values {
		if s, ok := v.(string); ok {
			p.strs = append(p.strs, s)
			continue
		}
		if n, ok := asInt64(v); ok {
			p.nums = append(p.nums, n)
			continue
		}
		return Predicate{op: opIn, col: col, str: fmt.Sprintf("%T", v), badOp: true}
	}
	if len(p.strs) > 0 && len(p.nums) > 0 {
		return Predicate{op: opIn, col: col, str: "mixed string/integer operands", badOp: true}
	}
	p.isStr = len(p.strs) > 0
	slices.Sort(p.nums) // the compiler binary-searches them
	return p
}

// HasTag matches rows whose tag-set column contains tag.
func HasTag(col, tag string) Predicate {
	return Predicate{op: opHasTag, col: col, str: tag}
}

// And matches rows passing every child predicate. And() matches all rows.
func And(ps ...Predicate) Predicate { return Predicate{op: opAnd, kids: ps} }

// Or matches rows passing any child predicate. Or() matches no rows.
func Or(ps ...Predicate) Predicate { return Predicate{op: opOr, kids: ps} }

func (p Predicate) bad() bool { return p.badOp }

// Compile evaluates p over every row of s and writes the result into
// bits: bit i set means row i passes. bits must be at least
// BitsLen(s.Rows()) long; it is fully overwritten (and zero-padded past
// the row count). The set-bit count over [0, Rows) is returned. Compile
// allocates only for nested AND/OR scratch (and the code set of an enum In
// over a dictionary past 255 entries) and may run concurrently with
// AppendRow; it evaluates one consistent published view.
func (s *Store) Compile(p Predicate, bits []uint64) (int, error) {
	return compileBits(s.v.Load(), p, bits)
}

// CompileAlloc is Compile into a freshly allocated bitmap sized from the
// same published view it evaluates. Callers sizing a bitmap from a separate
// Rows() load can race a concurrent AppendRow across a 64-row word boundary
// and draw a spurious "bitmap too short" error; CompileAlloc cannot.
func (s *Store) CompileAlloc(p Predicate) ([]uint64, int, error) {
	v := s.v.Load()
	bits := make([]uint64, BitsLen(v.rows))
	count, err := compileBits(v, p, bits)
	if err != nil {
		return nil, 0, err
	}
	return bits, count, nil
}

func compileBits(v *view, p Predicate, bits []uint64) (int, error) {
	words := BitsLen(v.rows)
	if len(bits) < words {
		return 0, fmt.Errorf("meta: bitmap too short: %d words, need %d", len(bits), words)
	}
	bits = bits[:len(bits):len(bits)]
	for i := range bits {
		bits[i] = 0
	}
	if err := compileInto(v, p, bits[:words]); err != nil {
		return 0, err
	}
	// Mask the tail so the count (and any downstream popcount) ignores
	// bits past the row count.
	if tail := v.rows % 64; tail != 0 && words > 0 {
		bits[words-1] &= 1<<uint(tail) - 1
	}
	return CountBits(bits[:words], v.rows), nil
}

// compileInto evaluates p into dst (len = word count over v.rows).
func compileInto(v *view, p Predicate, dst []uint64) error {
	switch p.op {
	case opNone:
		return nil // zero predicate: no rows
	case opAnd, opOr:
		if len(p.kids) == 0 {
			if p.op == opAnd {
				setAll(dst, v.rows)
			}
			return nil
		}
		if err := compileInto(v, p.kids[0], dst); err != nil {
			return err
		}
		if len(p.kids) == 1 {
			return nil
		}
		tmp := make([]uint64, len(dst))
		for _, kid := range p.kids[1:] {
			for i := range tmp {
				tmp[i] = 0
			}
			if err := compileInto(v, kid, tmp); err != nil {
				return err
			}
			if p.op == opAnd {
				for i := range dst {
					dst[i] &= tmp[i]
				}
			} else {
				for i := range dst {
					dst[i] |= tmp[i]
				}
			}
		}
		return nil
	}
	if p.bad() {
		return fmt.Errorf("meta: column %q: unsupported operand (%s)", p.col, p.str)
	}
	c := v.col(p.col)
	if c == nil {
		return fmt.Errorf("meta: unknown column %q", p.col)
	}
	switch p.op {
	case opEq:
		switch c.typ {
		case TypeInt64:
			if p.isStr {
				return fmt.Errorf("meta: column %q is int64, Eq got a string", p.col)
			}
			eqBits(dst, c.ints[:v.rows], p.num)
		case TypeEnum:
			if !p.isStr {
				return fmt.Errorf("meta: column %q is enum, Eq got an integer", p.col)
			}
			code := c.code(p.str)
			if code == missingCode {
				return nil // value absent from the dictionary: empty result
			}
			eqBits(dst, c.codes[:v.rows], code)
		default:
			return fmt.Errorf("meta: Eq on %s column %q (use HasTag)", c.typ, p.col)
		}
	case opRange:
		if c.typ != TypeInt64 {
			return fmt.Errorf("meta: Range on %s column %q", c.typ, p.col)
		}
		rangeBits(dst, c.ints[:v.rows], p.lo, p.hi)
	case opIn:
		switch c.typ {
		case TypeInt64:
			if p.isStr {
				return fmt.Errorf("meta: column %q is int64, In got strings", p.col)
			}
			inSortedBits(dst, c.ints[:v.rows], p.nums)
		case TypeEnum:
			if !p.isStr && len(p.nums) > 0 {
				return fmt.Errorf("meta: column %q is enum, In got integers", p.col)
			}
			inCodeBits(dst, c, p.strs, v.rows)
		default:
			return fmt.Errorf("meta: In on %s column %q (use HasTag)", c.typ, p.col)
		}
	case opHasTag:
		if c.typ != TypeTags {
			return fmt.Errorf("meta: HasTag on %s column %q", c.typ, p.col)
		}
		code := c.code(p.str)
		if code == missingCode {
			return nil
		}
		for i := 0; i < v.rows; i++ {
			row := c.tags[c.offs[i]:c.offs[i+1]]
			j := sort.Search(len(row), func(k int) bool { return row[k] >= code })
			if j < len(row) && row[j] == code {
				dst[i>>6] |= 1 << uint(i&63)
			}
		}
	default:
		return fmt.Errorf("meta: invalid predicate op %d", p.op)
	}
	return nil
}

// The leaf kernels below build each 64-row result word in a register and
// store it once: no read-modify-write of dst per row and no branch on a
// row's value, so a pass costs the same whatever fraction of rows it admits
// and however the admitted rows are ordered. A row's bit is shifted in at the
// top of the word, so after a full block bit j is row j and a short last
// block is shifted down the rest of the way. Each kernel overwrites all of
// dst, whose length is BitsLen(len(vals)).

// eqBits sets bit i for every row with vals[i] == x: the kernel of the
// commonest predicate, over int64 values and enum codes alike. Four rows a
// step — the shift-or chain is the loop's only serial dependency.
func eqBits[T int32 | int64](dst []uint64, vals []T, x T) {
	for w := range dst {
		blk := vals[w<<6 : min(len(vals), w<<6+64)]
		shift := uint(64 - len(blk))
		var word uint64
		for ; len(blk) >= 4; blk = blk[4:] {
			var b0, b1, b2, b3 uint64
			if blk[0] == x {
				b0 = 1 << 60
			}
			if blk[1] == x {
				b1 = 1 << 61
			}
			if blk[2] == x {
				b2 = 1 << 62
			}
			if blk[3] == x {
				b3 = 1 << 63
			}
			word = word>>4 | b0 | b1 | b2 | b3
		}
		for _, val := range blk {
			var b uint64
			if val == x {
				b = 1 << 63
			}
			word = word>>1 | b
		}
		dst[w] = word >> shift
	}
}

// rangeBits sets bit i for every row with lo <= vals[i] <= hi. The test is
// the one unsigned compare (v - lo) <= (hi - lo), which holds exactly for v
// in [lo, hi] whenever lo <= hi.
func rangeBits(dst []uint64, vals []int64, lo, hi int64) {
	if lo > hi {
		return
	}
	span := uint64(hi) - uint64(lo)
	for w := range dst {
		blk := vals[w<<6 : min(len(vals), w<<6+64)]
		var word uint64
		for _, val := range blk {
			var b uint64
			if uint64(val)-uint64(lo) <= span {
				b = 1 << 63
			}
			word = word>>1 | b
		}
		dst[w] = word >> uint(64-len(blk))
	}
}

// inSortedBits sets bit i for every row whose value is in sorted
// (ascending). A 512-bit hash sieve of the wanted values answers
// each row with a load and a shift; only the rows it lets through — the
// matches plus a few false positives — pay for the exact binary search.
func inSortedBits(dst []uint64, vals, sorted []int64) {
	hash := func(v int64) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 >> 55 }
	var sieve [8]uint64
	for _, n := range sorted {
		h := hash(n)
		sieve[h>>6] |= 1 << (h & 63)
	}
	for w := range dst {
		blk := vals[w<<6 : min(len(vals), w<<6+64)]
		var word uint64
		for _, val := range blk {
			h := hash(val)
			word = word>>1 | sieve[h>>6]>>(h&63)<<63
		}
		word >>= uint(64 - len(blk))
		for m := word; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if _, ok := slices.BinarySearch(sorted, blk[j]); !ok {
				word &^= 1 << uint(j)
			}
		}
		dst[w] = word
	}
}

// inCodeBits sets bit i for every row of enum column c whose value is one
// of strs. The wanted dictionary codes become a bitset shifted up by one,
// so the missing code (-1) reads bit 0, which is never set, and a row's
// test is one word load and a shift; values absent from the dictionary
// contribute nothing. Dictionaries up to 255 entries keep the set on the
// stack.
func inCodeBits(dst []uint64, c *column, strs []string, rows int) {
	var small [4]uint64
	want := small[:]
	if words := len(c.dict)/64 + 1; words > len(want) {
		want = make([]uint64, words)
	}
	for _, s := range strs {
		if code := c.code(s); code != missingCode {
			want[(code+1)>>6] |= 1 << uint((code+1)&63)
		}
	}
	codes := c.codes[:rows]
	for w := range dst {
		blk := codes[w<<6 : min(len(codes), w<<6+64)]
		var word uint64
		for _, rc := range blk {
			u := uint32(rc + 1)
			word = word>>1 | want[u>>6]>>(u&63)<<63
		}
		dst[w] = word >> uint(64-len(blk))
	}
}

func setAll(dst []uint64, rows int) {
	full := rows / 64
	for i := 0; i < full; i++ {
		dst[i] = ^uint64(0)
	}
	if tail := rows % 64; tail != 0 {
		dst[full] = 1<<uint(tail) - 1
	}
}

// Matches evaluates p against a single row — the reference semantics the
// bitmap compiler must agree with (the parity tests compare the two). Rows
// outside [0, Rows) match nothing; errors (unknown column, type mismatch)
// report false.
func (s *Store) Matches(p Predicate, row int) bool {
	v := s.v.Load()
	if row < 0 || row >= v.rows {
		return false
	}
	ok, err := matchRow(v, p, row)
	return err == nil && ok
}

func matchRow(v *view, p Predicate, row int) (bool, error) {
	switch p.op {
	case opNone:
		return false, nil
	case opAnd:
		for _, kid := range p.kids {
			ok, err := matchRow(v, kid, row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case opOr:
		for _, kid := range p.kids {
			ok, err := matchRow(v, kid, row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	if p.bad() {
		return false, fmt.Errorf("meta: bad operand")
	}
	c := v.col(p.col)
	if c == nil {
		return false, fmt.Errorf("meta: unknown column %q", p.col)
	}
	switch p.op {
	case opEq:
		switch c.typ {
		case TypeInt64:
			return !p.isStr && c.ints[row] == p.num, typeCheck(!p.isStr, c, p.col)
		case TypeEnum:
			return p.isStr && c.codes[row] != missingCode && c.codes[row] == c.code(p.str), typeCheck(p.isStr, c, p.col)
		}
	case opRange:
		if c.typ == TypeInt64 {
			return c.ints[row] >= p.lo && c.ints[row] <= p.hi, nil
		}
	case opIn:
		switch c.typ {
		case TypeInt64:
			for _, n := range p.nums {
				if c.ints[row] == n {
					return true, nil
				}
			}
			return false, nil
		case TypeEnum:
			rc := c.codes[row]
			if rc == missingCode {
				return false, nil
			}
			for _, s := range p.strs {
				if c.code(s) == rc {
					return true, nil
				}
			}
			return false, nil
		}
	case opHasTag:
		if c.typ == TypeTags {
			code := c.code(p.str)
			if code == missingCode {
				return false, nil
			}
			row := c.tags[c.offs[row]:c.offs[row+1]]
			j := sort.Search(len(row), func(k int) bool { return row[k] >= code })
			return j < len(row) && row[j] == code, nil
		}
	}
	return false, fmt.Errorf("meta: predicate op %d does not apply to %s column %q", p.op, c.typ, p.col)
}

func typeCheck(ok bool, c *column, col string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("meta: operand type mismatch on %s column %q", c.typ, col)
}
