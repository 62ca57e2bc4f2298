//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// This file is the platform half of the batched data plane: recvmmsg and
// sendmmsg through the raw socket descriptor, integrated with the Go
// runtime poller via syscall.RawConn so blocking behavior and shutdown
// (close unblocks the read) match the portable path exactly. The layouts
// below are the 64-bit Linux kernel ABI; the build tag restricts this
// file to the architectures where syscall.Msghdr matches it.

// mmsghdr mirrors struct mmsghdr: one msghdr plus the per-packet byte
// count the kernel fills in (padded to 8-byte alignment on 64-bit).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// addrKey identifies one remote socket address for the receive-side
// address cache (so steady-state receives allocate no net.UDPAddr).
type addrKey struct {
	v6   bool
	ip   [16]byte
	port uint16
}

// mmsgIO is one socket's batched I/O: the send scratch arrays, the
// receive address cache and the decoded batch. It owns no receive ring:
// readBatch borrows one from the process-wide stock (rings) for one
// recvmmsg and the decode of its datagrams. readBatch is called from the
// single receive goroutine and writeBatch under the coalescer's flush
// lock, so neither needs locking.
type mmsgIO struct {
	rc    syscall.RawConn
	addrs map[addrKey]*net.UDPAddr
	got   []received // the last batch's frames, decoded

	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames []syscall.RawSockaddrInet6 // large enough for v4 too
	// The batch writeBatch is sending: packets whdrs[woff:wlen] are
	// unsent. The callback that sends them is bound once, in send, so a
	// flush allocates no closure.
	wlen, woff, wcalls int
	werr               syscall.Errno
	send               func(fd uintptr) bool

	// The batch readBatch is receiving: the borrowed ring (nil when none
	// is held), its datagram count and the recvmmsg error. The callback
	// that fills them is bound once, in recv, so a receive allocates no
	// closure.
	rring *recvRing
	rn    int
	rerr  syscall.Errno
	recv  func(fd uintptr) bool
}

// addrCacheMax bounds the receive address cache; a cache this full is a
// rotating-peers pathology and resetting it is cheaper than an eviction
// policy.
const addrCacheMax = 4096

// recvRing is one recvmmsg ring of maxBatch slots: a receive buffer per
// slot, with the iovec, msghdr and sockaddr the kernel fills for it. The
// pointers between them are set once, when the ring is made.
type recvRing struct {
	bufs  [][]byte
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
}

func newRecvRing() *recvRing {
	r := &recvRing{
		bufs:  make([][]byte, maxBatch),
		hdrs:  make([]mmsghdr, maxBatch),
		iovs:  make([]syscall.Iovec, maxBatch),
		names: make([]syscall.RawSockaddrAny, maxBatch),
	}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, recvSlot)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(recvSlot)
		r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
	}
	return r
}

// ringStock holds the process's receive rings. A ring is a socket's only
// while it drains a readable socket and decodes the batch, so a process
// with many quiet sockets keeps as many rings as sockets were ever
// draining at once, not one per socket, and never more than ringCap.
// Closing a socket trims the stock so it never holds more rings than mmsg
// sockets are open. It is not a sync.Pool: a pool is emptied by the
// collector and would make multi-megabyte rings again every few cycles.
type ringStock struct {
	mu      sync.Mutex
	back    sync.Cond   // broadcast when a ring comes back; L is &mu
	free    []*recvRing // LIFO: the ring lent next is the one last touched
	live    int         // rings in existence, free or lent
	sockets int         // open mmsg sockets
}

var rings = func() *ringStock {
	s := &ringStock{}
	s.back.L = &s.mu
	return s
}()

// ringCap bounds the rings. At most GOMAXPROCS receive loops run at once,
// and one more covers a loop handing its ring back while the next takes
// one. A ring beyond that would be lent only to a loop parked mid-decode
// (the collector parks goroutines that allocate during a cycle), and once
// made it would be kept.
func ringCap() int { return runtime.GOMAXPROCS(0) + 1 }

// pop lends the most recently returned free ring, or nil if none is free;
// the caller holds s.mu.
func (s *ringStock) pop() *recvRing {
	k := len(s.free)
	if k == 0 {
		return nil
	}
	r := s.free[k-1]
	s.free[k-1] = nil
	s.free = s.free[:k-1]
	return r
}

// take lends a free ring, or returns nil if none is free.
func (s *ringStock) take() *recvRing {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pop()
}

// get lends a ring: a free one, else a new one while fewer than ringCap
// exist, else the next one handed back. A lent ring is held only for a
// recvmmsg and a decode, so the wait is short.
func (s *ringStock) get() *recvRing {
	s.mu.Lock()
	for len(s.free) == 0 && s.live >= ringCap() {
		s.back.Wait()
	}
	if r := s.pop(); r != nil {
		s.mu.Unlock()
		return r
	}
	s.live++
	s.mu.Unlock()
	return newRecvRing()
}

// put takes a lent ring back.
func (s *ringStock) put(r *recvRing) {
	s.mu.Lock()
	s.free = append(s.free, r)
	s.mu.Unlock()
	s.back.Broadcast()
}

// open counts a new mmsg socket.
func (s *ringStock) open() {
	s.mu.Lock()
	s.sockets++
	s.mu.Unlock()
}

// close counts a closed socket and drops free rings until no more rings
// exist than sockets are open.
func (s *ringStock) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sockets--
	for s.live > s.sockets && s.pop() != nil {
		s.live--
	}
}

func newMmsgIO(conn *net.UDPConn) *mmsgIO {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	rings.open()
	m := &mmsgIO{
		rc:     rc,
		addrs:  make(map[addrKey]*net.UDPAddr),
		got:    make([]received, 0, maxBatch),
		whdrs:  make([]mmsghdr, maxBatch),
		wiovs:  make([]syscall.Iovec, maxBatch),
		wnames: make([]syscall.RawSockaddrInet6, maxBatch),
	}
	m.send = m.sendmmsg
	m.recv = m.recvmmsg
	return m
}

// close returns the socket's share of the ring stock; the socket's
// receive loop must have exited.
func (m *mmsgIO) close() { rings.close() }

// readBatch blocks until the socket is readable, drains up to maxBatch
// datagrams with one recvmmsg, and returns their frames decoded
// and the datagram count; the slice is m's, valid until the next call.
// The ring is borrowed only while the socket is readable: a recvmmsg that
// finds the socket empty hands it back before the goroutine parks, a
// batch hands it back once decoded, and a socket with no free ring makes
// or waits for one only when a datagram is waiting. It returns a non-nil
// error only when the socket is closed (or irrecoverable); an empty batch
// with a nil error means "retry".
func (m *mmsgIO) readBatch() ([]received, int, error) {
	m.rring, m.rn, m.rerr = nil, 0, 0
	err := m.rc.Read(m.recv)
	m.got = m.got[:0]
	if r := m.rring; r != nil {
		for i := 0; i < m.rn; i++ {
			m.got = decode(m.got, r.bufs[i][:r.hdrs[i].n], m.udpAddr(&r.names[i]))
		}
		rings.put(r)
		m.rring = nil
	}
	if err != nil {
		return nil, 0, err // socket closed
	}
	if m.rerr != 0 {
		if m.rerr == syscall.EINTR {
			return nil, 0, nil
		}
		return nil, 0, m.rerr
	}
	return m.got, m.rn, nil
}

// recvmmsg is readBatch's RawConn.Read callback: it borrows a ring and
// drains the socket into it with one recvmmsg, or reports false to wait
// for readability when the socket is empty.
func (m *mmsgIO) recvmmsg(fd uintptr) bool {
	r := rings.take()
	if r == nil {
		// No ring is free: make or wait for one only if a datagram is
		// waiting, so a socket that is not readable never adds a ring
		// or waits.
		_, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd, 0, 0,
			uintptr(syscall.MSG_PEEK|syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK {
			return false
		}
		r = rings.get()
	}
	for i := range r.hdrs {
		r.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
		r.hdrs[i].n = 0
	}
	r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK {
		rings.put(r)
		return false // wait for readability
	}
	m.rring = r
	if errno != 0 {
		m.rerr = errno
		return true
	}
	m.rn = int(r1)
	return true
}

// writeBatch transmits pkts (at most maxBatch, enforced by the
// caller) and reports how many sendmmsg calls it took. Partial sends
// continue from the first unsent packet once the socket is writable
// again.
func (m *mmsgIO) writeBatch(pkts []outPkt) (int, error) {
	for i := range pkts {
		b := pkts[i].buf.b
		m.wiovs[i].Base = &b[0]
		m.wiovs[i].SetLen(len(b))
		m.whdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.wnames[i]))
		m.whdrs[i].hdr.Namelen = m.putSockaddr(i, pkts[i].addr)
		m.whdrs[i].hdr.Iov = &m.wiovs[i]
		m.whdrs[i].hdr.Iovlen = 1
		m.whdrs[i].n = 0
	}
	m.wlen, m.woff, m.wcalls, m.werr = len(pkts), 0, 0, 0
	if err := m.rc.Write(m.send); err != nil {
		return m.wcalls, err
	}
	if m.werr != 0 {
		return m.wcalls, m.werr
	}
	return m.wcalls, nil
}

// sendmmsg is writeBatch's RawConn.Write callback: it sends the unsent
// packets until none is left or a send fails, or reports false to wait
// for writability when the socket is full.
func (m *mmsgIO) sendmmsg(fd uintptr) bool {
	for m.woff < m.wlen {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&m.whdrs[m.woff])), uintptr(m.wlen-m.woff),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK {
			return false // wait for writability, then resume at woff
		}
		if errno == syscall.EINTR {
			continue
		}
		m.wcalls++
		if errno != 0 {
			m.werr = errno
			return true
		}
		m.woff += int(r1)
	}
	return true
}

// putSockaddr renders addr into the i-th send sockaddr slot and returns
// its length.
func (m *mmsgIO) putSockaddr(i int, addr *net.UDPAddr) uint32 {
	if ip4 := addr.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&m.wnames[i]))
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4
	}
	sa := &m.wnames[i]
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
	copy(sa.Addr[:], addr.IP.To16())
	return syscall.SizeofSockaddrInet6
}

// udpAddr converts a kernel-written sockaddr into a cached *net.UDPAddr.
// The cached address is shared (the route table may retain it) and must
// never be mutated.
func (m *mmsgIO) udpAddr(rsa *syscall.RawSockaddrAny) *net.UDPAddr {
	var k addrKey
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		copy(k.ip[:4], sa.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		k.port = uint16(p[0])<<8 | uint16(p[1])
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		k.v6 = true
		copy(k.ip[:], sa.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		k.port = uint16(p[0])<<8 | uint16(p[1])
	default:
		return &net.UDPAddr{}
	}
	if a, ok := m.addrs[k]; ok {
		return a
	}
	if len(m.addrs) >= addrCacheMax {
		m.addrs = make(map[addrKey]*net.UDPAddr)
	}
	var a *net.UDPAddr
	if k.v6 {
		ip := make(net.IP, 16)
		copy(ip, k.ip[:])
		a = &net.UDPAddr{IP: ip, Port: int(k.port)}
	} else {
		ip := make(net.IP, 4)
		copy(ip, k.ip[:4])
		a = &net.UDPAddr{IP: ip, Port: int(k.port)}
	}
	m.addrs[k] = a
	return a
}
