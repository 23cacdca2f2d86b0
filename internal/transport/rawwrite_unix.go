//go:build unix

package transport

import "syscall"

// writeNonblock makes one write of b to the non-blocking socket fd and
// returns how many bytes the socket took. A socket that would block takes
// none; any other failure is returned.
func writeNonblock(fd uintptr, b []byte) (int, error) {
	n, err := syscall.Write(int(fd), b)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
