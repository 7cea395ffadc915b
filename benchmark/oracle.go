package main

import (
	"crypto/sha256"
	"fmt"
	"hash"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/server"
)

// phase is one section of a served run: a slice of the stream sent
// closed loop (rate 0) or open loop at a fixed rate, then closed with a
// watermark so every window it touched emits before the next begins.
type phase struct {
	index   int // position in the plan, and in reference.phaseCount
	name    string
	from, n int   // event index range [from, from+n)
	offset  int64 // event i carries tick offset+i+1
	rate    int   // events/s; 0 = closed loop
	closeWM int64 // watermark sent after the last batch
}

func (p phase) lastTick() int64 { return p.offset + int64(p.from+p.n) }

// plan lays phases end to end over one stream. Each phase's ticks start
// just past the previous phase's closing watermark, which would
// otherwise make its first events late.
func plan(d workloadDef, names []string, sizes, rates []int) []phase {
	var out []phase
	from, offset := 0, int64(0)
	for i, name := range names {
		p := phase{index: i, name: name, from: from, n: sizes[i], offset: offset, rate: rates[i]}
		p.closeWM = p.lastTick()/d.slide*d.slide + d.within
		out = append(out, p)
		from += p.n
		offset = p.closeWM - int64(from)
	}
	return out
}

// windowOf is the index of the window ending at tick end.
func (d workloadDef) windowOf(end int64) int64 { return (end - d.within) / d.slide }

// closedBy is the highest window index an event (or watermark) at tick t
// closes: windows close once t reaches their end.
func (d workloadDef) closedBy(t int64) int64 {
	if t < d.within {
		return -1
	}
	return (t - d.within) / d.slide
}

// reference is what a run's output must equal: produced by one
// sequential nil-plan (A-Seq) system over the same phases, rendered with
// the server's own encoder.
type reference struct {
	count      int64
	phaseCount []int64 // cumulative results after each phase's watermark
	sum        [32]byte
	hasResult  []bool // by window index: the window emits at least one row
}

// digest accumulates result payload lines the way both sides of the
// comparison do: canonical wire form, one line per result, seq from 0.
type digest struct {
	h       hash.Hash
	queries map[int]*sharon.Query
	seq     int64
}

func newDigest(w sharon.Workload) *digest {
	qs := make(map[int]*sharon.Query, len(w))
	for _, q := range w {
		qs[q.ID] = q
	}
	return &digest{h: sha256.New(), queries: qs}
}

var newline = []byte{'\n'}

func (g *digest) add(r sharon.Result) {
	g.h.Write(server.EncodeResult(g.queries, g.seq, r))
	g.h.Write(newline)
	g.seq++
}

func (g *digest) sum() (s [32]byte) {
	g.h.Sum(s[:0])
	return s
}

// referenceRun computes the reference for a plan of phases.
func referenceRun(d workloadDef, src source, phases []phase) (*reference, error) {
	w, _, err := d.compile()
	if err != nil {
		return nil, err
	}
	last := phases[len(phases)-1]
	ref := &reference{hasResult: make([]bool, d.closedBy(last.closeWM)+2)}
	g := newDigest(w)
	// Encoding and hashing cost about as much as the engine pass; a
	// second goroutine takes them so the reference costs one pass, not two.
	results := make(chan []sharon.Result, 4) // a few chunks in flight keep both sides busy
	done := make(chan struct{})
	go func() {
		defer close(done)
		for chunk := range results {
			for _, r := range chunk {
				g.add(r)
			}
		}
	}()
	const chunkLen = 4096
	chunk := make([]sharon.Result, 0, chunkLen)
	sys, err := sharon.NewSystem(w, sharon.Options{
		Strategy:    sharon.StrategyNonShared,
		Parallelism: 1,
		OnResult: func(r sharon.Result) {
			ref.hasResult[r.Win] = true
			ref.count++
			chunk = append(chunk, r)
			if len(chunk) == chunkLen {
				results <- chunk
				chunk = make([]sharon.Result, 0, chunkLen)
			}
		},
	})
	if err != nil {
		close(results)
		return nil, err
	}
	buf := make([]sharon.Event, batchSize)
	for _, p := range phases {
		for from := p.from; from < p.from+p.n; from += batchSize {
			b := buf[:min(batchSize, p.from+p.n-from)]
			src.fill(b, from, p.offset)
			if err := sys.FeedBatch(b); err != nil {
				close(results)
				return nil, fmt.Errorf("reference %s: %w", p.name, err)
			}
		}
		sys.AdvanceWatermark(p.closeWM)
		ref.phaseCount = append(ref.phaseCount, ref.count)
	}
	results <- chunk
	close(results)
	<-done
	ref.sum = g.sum()
	return ref, nil
}
