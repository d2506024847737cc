package main

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sknn/internal/core"
	"sknn/internal/gateway"
	"sknn/internal/mpc"
	"sknn/internal/paillier"
	"sknn/internal/smc"
)

// span is one timed call across a layer boundary. Spans of one query
// share Query; Parent is the span that caused this one (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. All times are
// nanoseconds since epoch, so spans from every goroutine share a clock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// A nil *tracer is tracing off: spans are not recorded, but time still
// runs and measures its function.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// add records a finished span under a pre-allocated id.
func (t *tracer) add(id, parent, query int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: t.at(start), End: t.at(end)})
	t.mu.Unlock()
}

// time runs fn inside a new span and returns the span's id and length.
func (t *tracer) time(parent, query int64, name string, fn func()) (int64, time.Duration) {
	id := t.id()
	start := time.Now()
	fn()
	end := time.Now()
	t.add(id, parent, query, name, start, end)
	return id, end.Sub(start)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opNames names the C1→C2 request opcodes for per-op metrics.
var opNames = map[mpc.Op]string{
	smc.OpSM:          "sm",
	smc.OpSBDLsb:      "sbd_lsb",
	smc.OpSBDVerify:   "sbd_verify",
	smc.OpSMIN:        "smin",
	20:                "smin_batch", // smc's unexported opSMINBatch
	smc.OpSMPack:      "sm_pack",
	smc.OpSBDPackLsb:  "sbd_pack_lsb",
	smc.OpSSEDPack:    "ssed_pack",
	smc.OpSBDPackBit:  "sbd_pack_bit",
	core.OpRank:       "rank",
	core.OpReveal:     "reveal",
	core.OpMinSelect:  "min_select",
	core.OpHello:      "hello",
	core.OpMinIndex:   "min_index",
	core.OpShardHello: "shard_hello",
	core.OpShardTopK:  "shard_topk",
}

func opName(op mpc.Op) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", op)
}

// tracedLink traces one C1↔C2 link: the C1 side's wait for each reply
// and the C2 handler's busy time for the same request, linked by the
// session tag the multiplexer stamps on every frame. parent names the
// span C1 waits are attributed to (the query in progress).
type tracedLink struct {
	tr     *tracer
	parent func() (spanID, query int64)

	mu      sync.Mutex
	pending map[uint64]pendingReq // by session tag; one outstanding request per tag
}

type pendingReq struct {
	id, parent, query int64
	op                mpc.Op
	start             time.Time
}

func newTracedLink(tr *tracer, parent func() (int64, int64)) *tracedLink {
	return &tracedLink{tr: tr, parent: parent, pending: make(map[uint64]pendingReq)}
}

// c1Conn wraps C1's end of the link.
func (l *tracedLink) c1Conn(c mpc.Conn) mpc.Conn { return &c1TracedConn{Conn: c, l: l} }

type c1TracedConn struct {
	mpc.Conn
	l *tracedLink
}

func (c *c1TracedConn) Send(m *mpc.Message) error {
	if m.Op != mpc.OpClose {
		parent, query := c.l.parent()
		c.l.mu.Lock()
		c.l.pending[m.Tag] = pendingReq{id: c.l.tr.id(), parent: parent, query: query, op: m.Op, start: time.Now()}
		c.l.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func (c *c1TracedConn) Recv() (*mpc.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	end := time.Now()
	c.l.mu.Lock()
	p, ok := c.l.pending[m.Tag]
	delete(c.l.pending, m.Tag)
	c.l.mu.Unlock()
	if ok {
		c.l.tr.add(p.id, p.parent, p.query, "c1.wait."+opName(p.op), p.start, end)
	}
	return m, nil
}

// c2Handler wraps C2's dispatcher for this link.
func (l *tracedLink) c2Handler(h mpc.Handler) mpc.Handler {
	return mpc.HandlerFunc(func(req *mpc.Message) (*mpc.Message, error) {
		l.mu.Lock()
		p := l.pending[req.Tag]
		l.mu.Unlock()
		var (
			resp *mpc.Message
			err  error
		)
		l.tr.time(p.id, p.query, "c2."+opName(req.Op), func() { resp, err = h.Handle(req) })
		return resp, err
	})
}

// tracedGateConn wraps Bob's connection to the gateway and times each
// request/reply pair as one gateway round trip.
type tracedGateConn struct {
	mpc.Conn
	tr     *tracer
	parent func() (spanID, query int64)

	mu      sync.Mutex
	pending pendingReq
	last    time.Duration // length of the latest completed round trip
}

func (c *tracedGateConn) Send(m *mpc.Message) error {
	parent, query := c.parent()
	c.mu.Lock()
	c.pending = pendingReq{id: c.tr.id(), parent: parent, query: query, op: m.Op, start: time.Now()}
	c.mu.Unlock()
	return c.Conn.Send(m)
}

func (c *tracedGateConn) Recv() (*mpc.Message, error) {
	m, err := c.Conn.Recv()
	end := time.Now()
	c.mu.Lock()
	p := c.pending
	c.last = end.Sub(p.start)
	c.mu.Unlock()
	c.tr.add(p.id, p.parent, p.query, "gateway.roundtrip", p.start, end)
	return m, err
}

func (c *tracedGateConn) lastRoundTrip() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// tracedBackend times the gateway's calls into a tenant's backend and
// keeps the protocol metrics each query returns.
type tracedBackend struct {
	gateway.Backend
	tr     *tracer
	parent func() (spanID, query int64)

	mu      sync.Mutex
	last    time.Duration
	metrics []*core.SecureMetrics
}

func (b *tracedBackend) SecureQuery(ctx context.Context, q core.EncryptedQuery, k, domainBits, target int) (*core.MaskedResult, *core.SecureMetrics, error) {
	var (
		res *core.MaskedResult
		sm  *core.SecureMetrics
		err error
	)
	parent, query := b.parent()
	_, d := b.tr.time(parent, query, "backend.secure_query", func() {
		res, sm, err = b.Backend.SecureQuery(ctx, q, k, domainBits, target)
	})
	b.mu.Lock()
	b.last = d
	if sm != nil {
		b.metrics = append(b.metrics, sm)
	}
	b.mu.Unlock()
	return res, sm, err
}

func (b *tracedBackend) lastCall() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// interval helpers for self-time accounting.

type interval struct{ lo, hi int64 }

// union merges intervals clipped to [lo, hi).
func union(in []interval, lo, hi int64) []interval {
	var c []interval
	for _, iv := range in {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var out []interval
	for _, iv := range c {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(u []interval) int64 {
	var n int64
	for _, iv := range u {
		n += iv.hi - iv.lo
	}
	return n
}

// overlap is the length of the intersection of two unions.
func overlap(a, b []interval) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// kernelPass times the Paillier kernels on the workload's own key
// (fixed-base tables enabled, as every workload runs them).
func kernelPass(sk *paillier.PrivateKey, reps int) (map[string]float64, error) {
	if err := sk.EnableFixedBase(rand.Reader); err != nil {
		return nil, err
	}
	pk := &sk.PublicKey
	m := big.NewInt(12345)
	cts := make([]*paillier.Ciphertext, reps)
	t0 := time.Now()
	for i := range cts {
		ct, err := pk.Encrypt(rand.Reader, m)
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for _, ct := range cts {
		if _, err := sk.Decrypt(ct); err != nil {
			return nil, err
		}
	}
	dec := time.Since(t0)
	scalars := make([]*big.Int, reps)
	for i := range scalars {
		s, err := pk.RandomZN(rand.Reader)
		if err != nil {
			return nil, err
		}
		scalars[i] = s
	}
	t0 = time.Now()
	for i, ct := range cts {
		pk.ScalarMul(ct, scalars[i])
	}
	mul := time.Since(t0)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(reps) }
	return map[string]float64{
		"paillier.encrypt_us":   us(enc),
		"paillier.decrypt_us":   us(dec),
		"paillier.scalarmul_us": us(mul),
	}, nil
}
