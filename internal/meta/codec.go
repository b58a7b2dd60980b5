package meta

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The metadata blob is one self-contained little-endian byte string,
// embedded verbatim wherever an index format carries metadata (the NSMS
// container's metadata section, and in older builds' one-index files the
// NSGM record's sixth section):
//
//	u32 magic "NSMD"   u32 version=1   u32 rows   u32 ncols
//	per column:
//	  u16 nameLen, name bytes, u8 type
//	  int64: rows × i64
//	  enum:  u32 dictN, dictN × (u16 len + bytes), rows × i32 codes
//	  tags:  u32 dictN, dict as above, (rows+1) × i32 offs,
//	         u32 ntags, ntags × i32 codes
//	u32 crc32(IEEE) over everything before it
//
// Decode validates every length against the remaining input, every code
// against its dictionary, and the CSR invariants (offsets monotone,
// per-row tag lists sorted), rejecting rather than misparsing — the same
// discipline as the graph formats, and what the format fuzzers lean on.
const (
	blobMagic   = 0x4e534d44 // "NSMD"
	blobVersion = 1

	maxCols    = 1024
	maxNameLen = 255
	maxDict    = 1 << 24
	maxRows    = 1 << 31
)

// AppendEncode appends the store's current published view to dst and
// returns the extended slice.
func (s *Store) AppendEncode(dst []byte) []byte {
	v := s.v.Load()
	start := len(dst)
	dst = le32(dst, blobMagic)
	dst = le32(dst, blobVersion)
	dst = le32(dst, uint32(v.rows))
	dst = le32(dst, uint32(len(v.cols)))
	for i := range v.cols {
		c := &v.cols[i]
		dst = le16(dst, uint16(len(c.name)))
		dst = append(dst, c.name...)
		dst = append(dst, byte(c.typ))
		switch c.typ {
		case TypeInt64:
			for _, n := range c.ints[:v.rows] {
				dst = le64(dst, uint64(n))
			}
		case TypeEnum:
			dst = appendDict(dst, c.dict)
			for _, code := range c.codes[:v.rows] {
				dst = le32(dst, uint32(code))
			}
		case TypeTags:
			dst = appendDict(dst, c.dict)
			for _, off := range c.offs[:v.rows+1] {
				dst = le32(dst, uint32(off))
			}
			ntags := c.offs[v.rows]
			dst = le32(dst, uint32(ntags))
			for _, code := range c.tags[:ntags] {
				dst = le32(dst, uint32(code))
			}
		}
	}
	return le32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendDict(dst []byte, dict []string) []byte {
	dst = le32(dst, uint32(len(dict)))
	for _, d := range dict {
		dst = le16(dst, uint16(len(d)))
		dst = append(dst, d...)
	}
	return dst
}

// Decode parses one metadata blob. The input must be exactly one blob
// (trailing bytes are an error); wantRows < 0 skips the row-count check.
func Decode(data []byte, wantRows int) (*Store, error) {
	d := decoder{data: data}
	if magic := d.u32(); magic != blobMagic {
		return nil, fmt.Errorf("meta: bad magic %#x", magic)
	}
	if ver := d.u32(); ver != blobVersion {
		return nil, fmt.Errorf("meta: unsupported version %d", ver)
	}
	nrows := d.u32()
	ncols := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if nrows >= maxRows { // compared as uint32: maxRows does not fit a 32-bit int
		return nil, fmt.Errorf("meta: invalid row count %d", nrows)
	}
	rows := int(nrows)
	if wantRows >= 0 && rows != wantRows {
		return nil, fmt.Errorf("meta: blob has %d rows, index has %d", rows, wantRows)
	}
	if ncols > maxCols {
		return nil, fmt.Errorf("meta: %d columns exceeds the limit %d", ncols, maxCols)
	}
	v := &view{rows: rows}
	for ci := 0; ci < ncols; ci++ {
		nameLen := int(d.u16())
		if nameLen > maxNameLen {
			return nil, fmt.Errorf("meta: column name length %d exceeds %d", nameLen, maxNameLen)
		}
		name := string(d.bytes(nameLen))
		typ := ColType(d.u8())
		if d.err != nil {
			return nil, d.err
		}
		if name == "" || v.col(name) != nil {
			return nil, fmt.Errorf("meta: empty or duplicate column name %q", name)
		}
		c := column{name: name, typ: typ}
		switch typ {
		case TypeInt64:
			c.ints = make([]int64, rows)
			for i := range c.ints {
				c.ints[i] = int64(d.u64())
			}
		case TypeEnum:
			var err error
			if c.dict, err = d.dict(); err != nil {
				return nil, err
			}
			c.codes = make([]int32, rows)
			for i := range c.codes {
				code := int32(d.u32())
				if code != missingCode && (code < 0 || int(code) >= len(c.dict)) {
					return nil, fmt.Errorf("meta: column %q: code %d out of dictionary range %d", name, code, len(c.dict))
				}
				c.codes[i] = code
			}
		case TypeTags:
			var err error
			if c.dict, err = d.dict(); err != nil {
				return nil, err
			}
			c.offs = make([]int32, rows+1)
			for i := range c.offs {
				c.offs[i] = int32(d.u32())
			}
			ntags := int(d.u32())
			if d.err != nil {
				return nil, d.err
			}
			if ntags < 0 || ntags > len(d.data)/4+1 {
				return nil, fmt.Errorf("meta: column %q: tag count %d exceeds input", name, ntags)
			}
			if c.offs[0] != 0 || int(c.offs[rows]) != ntags {
				return nil, fmt.Errorf("meta: column %q: CSR bounds [%d, %d] want [0, %d]", name, c.offs[0], c.offs[rows], ntags)
			}
			for i := 0; i < rows; i++ {
				if c.offs[i] > c.offs[i+1] {
					return nil, fmt.Errorf("meta: column %q: offsets not monotone at row %d", name, i)
				}
			}
			c.tags = make([]int32, ntags)
			for i := range c.tags {
				code := int32(d.u32())
				if code < 0 || int(code) >= len(c.dict) {
					return nil, fmt.Errorf("meta: column %q: tag code %d out of dictionary range %d", name, code, len(c.dict))
				}
				c.tags[i] = code
			}
			for i := 0; i < rows; i++ {
				row := c.tags[c.offs[i]:c.offs[i+1]]
				for j := 1; j < len(row); j++ {
					if row[j-1] > row[j] {
						return nil, fmt.Errorf("meta: column %q: row %d tags not sorted", name, i)
					}
				}
			}
		default:
			return nil, fmt.Errorf("meta: column %q has unknown type %d", name, typ)
		}
		if d.err != nil {
			return nil, d.err
		}
		v.cols = append(v.cols, c)
	}
	body := len(data) - len(d.data)
	want := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if got := crc32.ChecksumIEEE(data[:body]); got != want {
		return nil, fmt.Errorf("meta: checksum mismatch: stored %#x computed %#x", want, got)
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("meta: %d trailing bytes after blob", len(d.data))
	}
	s := &Store{dictIdx: make(map[string]map[string]int32)}
	s.v.Store(v)
	return s, nil
}

// decoder is a bounds-checked little-endian reader; the first overrun
// latches err and every later read returns zero.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data) {
		d.err = fmt.Errorf("meta: truncated blob (want %d bytes, have %d)", n, len(d.data))
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *decoder) bytes(n int) []byte { return d.take(n) }

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) dict() ([]string, error) {
	n := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if n > maxDict || n > len(d.data)/2+1 {
		return nil, fmt.Errorf("meta: dictionary size %d exceeds input", n)
	}
	dict := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l := int(d.u16())
		dict = append(dict, string(d.bytes(l)))
		if d.err != nil {
			return nil, d.err
		}
	}
	return dict, nil
}

func le16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func le32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func le64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
