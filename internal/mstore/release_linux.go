//go:build linux

package mstore

import "syscall"

// dropPages drops the resident pages of b, a page-aligned range of the
// read-only shared mapping; a later read faults them back in from the file.
func dropPages(b []byte) { syscall.Madvise(b, syscall.MADV_DONTNEED) }
