//go:build !unix || aix

package cluster

// socketIdle cannot peek without blocking here, so an idle connection's
// socket is taken to be open: a backend that closed it fails the next
// call on it.
func socketIdle(uintptr) bool { return true }
