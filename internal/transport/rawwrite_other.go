//go:build !unix

package transport

// writeNonblock reports that the socket would block: on this platform every
// peer frame leaves through the drain goroutine.
func writeNonblock(uintptr, []byte) (int, error) { return 0, nil }
