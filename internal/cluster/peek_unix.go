//go:build unix && !aix

package cluster

import "syscall"

// socketIdle reports whether the connected socket fd is open with
// nothing to read: a non-blocking peek that finds no byte. A peer that
// closed it leaves an end of stream to read (0 bytes, no error), and
// stray bytes would be read as the next call's reply.
func socketIdle(fd uintptr) bool {
	var b [1]byte
	_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return err == syscall.EAGAIN
}
