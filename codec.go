package nsg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/chunkio"
	"repro/internal/vecmath"
)

// This file is the vector codec shared by the Index and ShardedIndex bundle
// formats: row-major float32 data, written one row per buffered Write and
// read back through the shared chunked codec (internal/chunkio), so
// persisting a million-vector matrix never pays one Write per float.

// writeMatrixRows encodes m's rows in the order rowOf dictates (output row
// r holds matrix row rowOf(r)), streaming through one reused row buffer so
// saving a relaid index never materializes a de-permuted copy of the
// matrix.
func writeMatrixRows(bw *bufio.Writer, m vecmath.Matrix, rowOf func(int) int32) error {
	buf := make([]byte, m.Dim*4)
	for r := 0; r < m.Rows; r++ {
		for j, v := range m.Row(int(rowOf(r))) {
			binary.LittleEndian.PutUint32(buf[j*4:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("nsg: write vectors: %w", err)
		}
	}
	return nil
}

// readMatrix decodes a rows×dim matrix written by writeMatrixRows.
func readMatrix(br io.Reader, rows, dim int) (vecmath.Matrix, error) {
	base := vecmath.NewMatrix(rows, dim)
	if err := chunkio.ReadFloat32s(br, base.Data); err != nil {
		return base, fmt.Errorf("nsg: truncated vectors: %w", err)
	}
	return base, nil
}
