//go:build !linux || !(amd64 || arm64)

package transport

import "net"

// mmsgIO is unavailable on this platform: there is no recvmmsg/sendmmsg
// (or the 64-bit msghdr layout batch_linux.go assumes does not hold), so
// newMmsgIO reports "unsupported" and the transport falls back to one
// syscall per datagram while keeping the coalescer's queueing semantics.
type mmsgIO struct{}

func newMmsgIO(conn *net.UDPConn) *mmsgIO { return nil }

func (m *mmsgIO) close() {}

func (m *mmsgIO) readBatch() ([]received, int, error) {
	panic("transport: mmsg readBatch on unsupported platform")
}

func (m *mmsgIO) writeBatch(pkts []outPkt) (int, error) {
	panic("transport: mmsg writeBatch on unsupported platform")
}
