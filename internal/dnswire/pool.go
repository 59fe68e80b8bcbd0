package dnswire

import (
	"sync"
	"sync/atomic"
)

// Message pooling for the exchange hot path. The authoritative server
// assembles every response in a pooled Message, and every consumer hands
// it back with ReleaseMessage once done: the scanner after record(), the
// UDP server after encoding, the resolver and Atlas's direct campaign
// once they have copied the addresses out.
//
// Ownership rules:
//
//   - A message returned by AcquireMessage is owned by exactly one
//     goroutine at a time. Passing it across an Exchanger transfers
//     ownership to the receiver.
//   - ReleaseMessage recycles only messages that came from
//     AcquireMessage; anything else is a no-op. Consumers may therefore
//     release every response they finish with, without tracking where it
//     came from — a test fake's static message simply falls through to
//     the GC. The fault injector's synthesized failures are pooled
//     messages like the server's answers, and go back to the pool.
//   - After ReleaseMessage the message must not be touched — nor may a
//     copy of its Answers slice: the answer storage and the EDNS scratch
//     stay with the message and are rewritten by the next owner.
//   - ReleaseMessage zeroes all the retained answer storage, also the
//     records a use wrote and then cut off (a shorter GrowAnswers, a
//     decode that failed partway), so no retained record keeps caller
//     data alive for the next owner.
//   - Acquires are counted in cache-line-padded stripes, one picked per
//     message when the pool allocates it: a sync.Pool hands each P back
//     the messages it released, so concurrent scans bump different
//     lines. MessagePoolStats sums the stripes; the count stays exact.

// acquireStripes is how many padded acquire counters there are.
const acquireStripes = 16

// acquireStripe is one acquire counter on a cache line of its own
// (128 bytes: adjacent-line prefetch pairs 64-byte lines).
type acquireStripe struct {
	n atomic.Int64
	_ [120]byte
}

// poolAcquires / poolMisses feed the pool-hit-rate metric relayd
// exports: a miss is an acquire the pool served by allocating a fresh
// Message. Plain atomic adds — they never allocate, so the 0 allocs/op
// contract on the exchange path holds.
var (
	poolAcquires [acquireStripes]acquireStripe
	poolMisses   atomic.Int64
)

// maxPooledAnswers caps the answer storage a recycled message keeps,
// mirroring masque's maxPooledPayload: a message that decoded an
// oversized answer section drops its storage on release, so one hostile
// response cannot pin memory in the pool. The service answers with at
// most eight records.
const maxPooledAnswers = 16

// msgPool's misses deal the acquire stripes round robin, so the few
// messages each worker keeps in flight land on different stripes.
var msgPool = sync.Pool{New: func() any {
	return &Message{stripe: uint8(poolMisses.Add(1) % acquireStripes)}
}}

// MessagePoolStats reports lifetime acquire and miss counts for the
// message pool. The hit rate is (acquires-misses)/acquires; misses also
// approximate the pool's allocation pressure.
func MessagePoolStats() (acquires, misses int64) {
	for i := range poolAcquires {
		acquires += poolAcquires[i].n.Load()
	}
	return acquires, poolMisses.Load()
}

// AcquireMessage returns a pooled Message. Its section slices are nil
// and its Header is zero; Edns may point at scratch EDNS/ClientSubnet
// structs from a previous life — overwrite them (e.g. via SetECS or
// DecodeInto) or drop it with DropEDNS before use. Answer storage from a
// previous life is retained and reused by GrowAnswers / DecodeInto.
func AcquireMessage() *Message {
	m := msgPool.Get().(*Message)
	poolAcquires[m.stripe].n.Add(1)
	m.pooled = true
	return m
}

// ReleaseMessage returns m to the pool if it came from AcquireMessage
// (otherwise it is a no-op, see the ownership rules above). The
// message's EDNS and ClientSubnet structs are kept as scratch so the
// steady state re-serves them without allocating, and so is the answer
// storage up to maxPooledAnswers records, zeroed; everything that may
// reference caller data (section slices, names, raw rdata) is dropped.
func ReleaseMessage(m *Message) {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false
	buf := m.answerBuf[:cap(m.answerBuf)]
	if len(buf) > maxPooledAnswers {
		buf = nil
	}
	clear(buf)
	edns := m.Edns
	if edns == nil {
		edns = m.ednsSpare
	}
	if edns != nil {
		cs := edns.ClientSubnet
		*edns = EDNS{ClientSubnet: cs}
		if cs != nil {
			*cs = ClientSubnet{}
		}
	}
	*m = Message{Edns: edns, answerBuf: buf[:0], stripe: m.stripe}
	msgPool.Put(m)
}

// DropEDNS clears Edns for a message that carries no OPT record. On a
// pooled message the EDNS scratch stays with the message, and
// ReleaseMessage hands it to the next owner.
func (m *Message) DropEDNS() {
	if m.Edns != nil {
		m.ednsSpare = m.Edns
		m.Edns = nil
	}
}

// GrowAnswers readies n records of message-owned answer storage,
// reusing retained capacity, points Answers at it and returns it for
// the caller to fill — all n records: reused storage is not zeroed
// here. Responses are assembled this way rather than by assigning a
// caller's slice to Answers, so no receiver can write through to (or
// release) records someone else still reads.
func (m *Message) GrowAnswers(n int) []Record {
	if cap(m.answerBuf) < n {
		m.answerBuf = make([]Record, n)
	}
	m.answerBuf = m.answerBuf[:n]
	m.Answers = m.answerBuf
	return m.answerBuf
}
