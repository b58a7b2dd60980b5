//go:build !unix

package mstore

import (
	"errors"
	"os"
)

var errNoMmap = errors.New("mstore: mmap unavailable on this platform")

// mmapFile always fails here; Open falls back to pread.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errNoMmap
}

func munmapFile(data []byte) error { return nil }
