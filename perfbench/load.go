package main

import (
	"bufio"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// shot is one HTTP request the load generator made. Bodies are kept so the
// answers can be checked after the timed phase.
type shot struct {
	seq    int // position in the workload's request sequence
	status int
	err    error
	body   []byte
	trace  string    // X-Spacx-Trace, kept only in the traced run
	sched  time.Time // when the open loop was due to send it (zero in a closed loop)
	queued bool      // open loop: every worker was still busy at sched
	start  time.Time
	end    time.Time
}

// conn is one keep-alive HTTP/1.1 connection driven synchronously by one
// client goroutine: the request is written and the answer read on that
// goroutine, so a request costs the client no goroutine hand-offs.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
}

// post sends one POST and reads the answer. A broken connection is
// dropped and redialled by the next call; the failed request is not
// retried.
func (k *conn) post(path string, body []byte) (status int, resp []byte, trace string, err error) {
	if k.c == nil {
		if k.c, err = net.Dial("tcp", k.addr); err != nil {
			return 0, nil, "", err
		}
		k.br = bufio.NewReader(k.c)
	}
	req := make([]byte, 0, 128+len(body))
	req = append(req, "POST "+path+" HTTP/1.1\r\nHost: "+k.addr+
		"\r\nContent-Type: application/json\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"...)
	req = append(req, body...)
	if _, err = k.c.Write(req); err != nil {
		k.close()
		return 0, nil, "", err
	}
	r, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.close()
		return 0, nil, "", err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil || r.Close {
		k.close()
	}
	return r.StatusCode, resp, r.Header.Get("X-Spacx-Trace"), err
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// conns returns clients connections to addr, dialled on first use.
func conns(addr string) []*conn {
	out := make([]*conn, clients)
	for i := range out {
		out[i] = &conn{addr: addr}
	}
	return out
}

// target is a workload's request stream: request seq is posted to path
// with body(seq).
type target struct {
	path  string
	body  func(seq int) []byte
	trace bool
}

// do posts one request on k.
func (t *target) do(k *conn, seq int, sched time.Time) shot {
	s := shot{seq: seq, sched: sched, start: time.Now()}
	var trace string
	s.status, s.body, trace, s.err = k.post(t.path, t.body(seq))
	s.end = time.Now()
	if t.trace {
		s.trace = trace
	}
	return s
}

// closedLoop runs one goroutine per connection, each sending its next
// request as soon as the previous one is answered, until d has passed.
// Requests are taken from the sequence in order starting at *cursor, which
// is advanced. It returns the shots in sequence order and the phase's wall
// time.
func closedLoop(t *target, cs []*conn, cursor *atomic.Int64, d time.Duration) ([]shot, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]shot, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := int(cursor.Add(1) - 1)
				per[i] = append(per[i], t.do(cs[i], seq, time.Time{}))
			}
		}(i)
	}
	wg.Wait()
	return merge(per), time.Since(start)
}

// round is the mean length of one closed-phase/open-phase pair. A run
// alternates through as many as fit its seconds, so each phase is spread
// over the whole run and a slow spell on a shared host weighs on both alike.
// The open phase takes three quarters of a round: it carries the gated
// figures, goodput and CPU per op, and these spread between runs about
// three times less with 14 s of open phases than with 8.
const round = 2 * time.Second

// schedule is a run's timed rounds. Each round is a closed phase of a
// seeded length followed by an open phase of nOpen ops due at seeded
// Poisson arrival times over phase.
type schedule struct {
	rounds int
	phase  time.Duration // open-phase length
	closed time.Duration // mean closed-phase length
	nOpen  int           // ops per open phase
	arrive *rand.Rand    // open-phase arrival times
	jitter *rand.Rand    // closed-phase lengths
}

// newSchedule cuts seconds into rounds with open phases offered rate ops
// per second.
func newSchedule(seconds time.Duration, seed int64, rate float64) *schedule {
	rounds := max(1, int(seconds/round))
	per := seconds / time.Duration(rounds)
	phase := per * 3 / 4
	return &schedule{
		rounds: rounds,
		phase:  phase,
		closed: per - phase,
		nOpen:  int(rate*phase.Seconds() + 0.5),
		arrive: rand.New(rand.NewSource(seed)),
		jitter: rand.New(rand.NewSource(^seed)),
	}
}

// openOps is how many ops the open phases of a run offer in all.
func (sc *schedule) openOps() int { return sc.rounds * sc.nOpen }

// closedLen draws the next closed phase's length, between half and one and
// a half times its mean, so each open phase meets the program's periodic
// state (layer-memo resets, garbage collection) at a different point and
// the run averages over them.
func (sc *schedule) closedLen() time.Duration {
	return time.Duration(float64(sc.closed) * (0.5 + sc.jitter.Float64()))
}

// open runs one open phase: nOpen ops due at arrival times drawn uniformly
// over the phase and sorted, which is a Poisson process conditioned on its
// count. Each of workers goroutines takes the next due op when it is free
// and runs do(w, k) for op k on worker w; do returns the op's shot with its
// start and end set. An op that finds every worker busy waits, and that
// wait counts in its latency. open returns the shots in sequence order and
// the phase's wall time: the phase, or until the last answer when that
// comes later.
func (sc *schedule) open(workers int, do func(w, k int) shot) ([]shot, time.Duration) {
	offs := make([]time.Duration, sc.nOpen)
	for i := range offs {
		offs[i] = time.Duration(sc.arrive.Int63n(int64(sc.phase)))
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })

	start := time.Now()
	var next atomic.Int64
	per := make([][]shot, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(offs) {
					return
				}
				due := start.Add(offs[k])
				wait := time.Until(due)
				if wait > 0 {
					// nanosleep wakes within tens of microseconds;
					// time.Sleep can wake a millisecond late.
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
				}
				s := do(w, k)
				s.sched, s.queued = due, wait <= 0
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	return merge(per), max(sc.phase, time.Since(start))
}

func merge(per [][]shot) []shot {
	var out []shot
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// latencies returns the open-loop latencies and the generator's lateness,
// in milliseconds, each sorted ascending. A request that waited for a busy
// connection is timed from its due time, so a stall counts against every
// request queued behind it. A request whose connection was idle is timed
// from its send: it left late only because the generator's sleep overslept,
// and that lateness is reported as lag instead.
func latencies(shots []shot) (lat, lag []float64) {
	for _, s := range shots {
		lat = append(lat, ms(s.end.Sub(s.from())))
		if !s.queued {
			lag = append(lag, ms(s.start.Sub(s.sched)))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	return lat, lag
}

// from is when an open-loop request's latency starts (see latencies).
func (s shot) from() time.Time {
	if s.queued {
		return s.sched
	}
	return s.start
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
