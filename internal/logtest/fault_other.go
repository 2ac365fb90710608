//go:build !linux

package logtest

import "testing"

// BreakWrites needs /proc/self/fd and dup3; see fault_linux.go.
func BreakWrites(t testing.TB, path string) { t.Skip("fault injection is Linux-only") }

// BreakSync needs /proc/self/fd and dup3; see fault_linux.go.
func BreakSync(t testing.TB, path string) { t.Skip("fault injection is Linux-only") }
