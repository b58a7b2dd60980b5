//go:build unix

package mstore

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and shared: the mapping is a
// view of the page cache, so opens are O(1) and cold pages fault in on
// first touch.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size > int64(int(^uint(0)>>1)) {
		return nil, syscall.ENOMEM
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
