//go:build !linux

package mstore

// dropPages is a no-op off Linux: the pages stay resident until Close.
func dropPages([]byte) {}
