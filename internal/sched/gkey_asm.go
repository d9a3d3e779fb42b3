//go:build amd64 || arm64

package sched

// gkey names the calling goroutine: its runtime g pointer, read from the
// g register/TLS slot by a four-line assembly stub (getg_$GOARCH.s) and
// handed back as an opaque integer. It is never dereferenced — no runtime
// struct offsets, no go:linkname — and is unique among live goroutines,
// which is all the registry needs: a binding lives strictly inside its
// goroutine's lifetime. The runtime recycles g structs, so a key may name
// a different goroutine once the first has exited.
func gkey() uintptr
