package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crowdjoin"
)

// paper-stream shape: a session opens on the first streamInitial records
// of a corpus and appends the rest streamBatch at a time; sessions
// alternate between streamCorpora corpora.
const (
	streamRecords = 4000
	streamInitial = streamRecords / 2
	streamBatch   = 50
	streamSteps   = (streamRecords - streamInitial) / streamBatch
	streamCorpora = 2
)

// dedupOracle answers from the ground truth and records every pair asked
// in the session, so a pair asked twice — an answer the journal failed to
// replay — is caught. When tr is set, each question is a "crowd" span
// under the span parent of op.
type dedupOracle struct {
	truth   *crowdjoin.TruthOracle
	asked   map[[2]int32]bool
	n       int // questions this session
	repeats int

	tr     *tracer
	op     int64
	parent int
}

func (o *dedupOracle) Label(p crowdjoin.Pair) crowdjoin.Label {
	s := o.tr.begin("crowd", o.op, o.parent)
	defer o.tr.end(s)
	k := [2]int32{min(p.A, p.B), max(p.A, p.B)}
	if o.asked[k] {
		o.repeats++
	}
	o.asked[k] = true
	o.n++
	return o.truth.Label(p)
}

// streamStep is the reference outcome of one append step of a session.
type streamStep struct {
	asked    int
	clusters [][]int32
}

// streamCorpus is one corpus of the workload with its initial journal and
// reference session.
type streamCorpus struct {
	c         *corpus
	base      []byte            // the journal after the initial Run
	baseAsked map[[2]int32]bool // pairs the initial Run asked
	steps     []streamStep
	f1        float64
}

// newStreamCorpus generates corpus i, joins it from scratch for the
// reference clusters, writes the initial journal, and runs one whole
// reference session, whose final clusters must equal the from-scratch join.
func newStreamCorpus(seed int64, i int, dir string) (*streamCorpus, error) {
	sc := &streamCorpus{c: paperCorpus(streamRecords, subSeed(seed, i))}
	truth := sc.c.truth()
	j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(sc.c.texts), crowdjoin.WithOracle(truth))
	if err != nil {
		return nil, err
	}
	full, err := j.Run(context.Background())
	if err != nil {
		return nil, err
	}
	want, err := full.Clusters()
	if err != nil {
		return nil, err
	}

	path := filepath.Join(dir, fmt.Sprintf("base%d.journal", i))
	f, err := crowdjoin.OpenJournalFile(path)
	if err != nil {
		return nil, err
	}
	crowd := &dedupOracle{truth: truth, asked: map[[2]int32]bool{}}
	j, err = crowdjoin.NewJoin(crowdjoin.WithTexts(sc.c.texts[:streamInitial]), crowdjoin.WithOracle(crowd), crowdjoin.WithJournal(f))
	if err == nil {
		_, err = j.Run(context.Background())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if sc.base, err = os.ReadFile(path); err != nil {
		return nil, err
	}
	sc.baseAsked = crowd.asked

	s, err := openSession(sc, filepath.Join(dir, fmt.Sprintf("ref%d.journal", i)))
	if err != nil {
		return nil, err
	}
	for k := 0; k < streamSteps; k++ {
		asked, cl, err := s.step(nil, int64(k), -1, k)
		if err != nil {
			s.close()
			return nil, err
		}
		sc.steps = append(sc.steps, streamStep{asked: asked, clusters: cl})
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if !sameClusters(sc.steps[streamSteps-1].clusters, want) {
		return nil, fmt.Errorf("streamed session's final clusters differ from the from-scratch join")
	}
	sc.f1 = sc.c.f1(want)
	return sc, nil
}

// streamSession is one streaming Join over a copy of a corpus's initial
// journal.
type streamSession struct {
	sc    *streamCorpus
	path  string
	f     *os.File
	j     *crowdjoin.Join
	crowd *dedupOracle
}

func openSession(sc *streamCorpus, path string) (*streamSession, error) {
	if err := os.WriteFile(path, sc.base, 0o644); err != nil {
		return nil, err
	}
	f, err := crowdjoin.OpenJournalFile(path)
	if err != nil {
		return nil, err
	}
	asked := make(map[[2]int32]bool, len(sc.baseAsked))
	for k := range sc.baseAsked {
		asked[k] = true
	}
	crowd := &dedupOracle{truth: sc.c.truth(), asked: asked}
	j, err := crowdjoin.NewJoin(crowdjoin.WithTexts(sc.c.texts[:streamInitial]), crowdjoin.WithOracle(crowd), crowdjoin.WithJournal(f))
	if err != nil {
		f.Close()
		return nil, err
	}
	return &streamSession{sc: sc, path: path, f: f, j: j, crowd: crowd}, nil
}

// close closes and deletes the session's journal.
func (s *streamSession) close() error {
	err := s.f.Close()
	if rerr := os.Remove(s.path); err == nil {
		err = rerr
	}
	return err
}

// step appends batch k and re-runs the join; it returns the questions the
// step asked and the clusters after it.
func (s *streamSession) step(tr *tracer, op int64, root, k int) (int, [][]int32, error) {
	before := s.crowd.n
	size := journalSize(tr, s.f)
	lo := streamInitial + k*streamBatch
	sp := tr.begin("append", op, root)
	ar, err := s.j.Append(s.sc.c.texts[lo : lo+streamBatch]...)
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	lab := tr.begin("label", op, root)
	s.crowd.tr, s.crowd.op, s.crowd.parent = tr, op, lab
	res, err := s.j.Run(context.Background())
	tr.end(lab)
	if err != nil {
		return 0, nil, err
	}
	cl, err := clusters(tr, op, root, res)
	if err != nil {
		return 0, nil, err
	}
	asked := s.crowd.n - before
	if s.crowd.repeats > 0 {
		return asked, cl, fmt.Errorf("%d journaled pairs were asked again", s.crowd.repeats)
	}
	noteResult(tr, res)
	tr.add("stream.new_pairs", float64(len(ar.NewPairs)))
	tr.add("stream.merges", float64(len(ar.Merges)))
	tr.add("journal.bytes", float64(journalSize(tr, s.f)-size))
	tr.add("journal.answers", float64(asked))
	tr.add("journal.replayed", float64(res.Replayed))
	return asked, cl, nil
}

// journalSize returns the journal's size on traced ops (0 untraced).
func journalSize(tr *tracer, f *os.File) int64 {
	if tr == nil {
		return 0
	}
	st, err := f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

type paperStream struct {
	corpora []*streamCorpus
	dir     string
	next    int64
	cur     *streamSession
}

// setupPaperStream builds the corpora, their initial journals and
// reference sessions, one corpus per CPU.
func setupPaperStream(seed int64, dir string) (instance, error) {
	w := &paperStream{corpora: make([]*streamCorpus, streamCorpora), dir: dir}
	err := forEach(streamCorpora, func(i int) error {
		sc, err := newStreamCorpus(seed, i, dir)
		w.corpora[i] = sc
		return err
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// op runs append step op%streamSteps of the current session. Step 0
// opens a fresh session on the next corpus, from its initial journal; the
// last step closes it.
func (w *paperStream) op(tr *tracer) (time.Duration, error) {
	op := w.next
	w.next++
	session, k := op/streamSteps, int(op%streamSteps)
	sc := w.corpora[session%streamCorpora]
	t0 := time.Now()
	root := tr.begin("op", op, -1)
	if k == 0 {
		s := tr.begin("open", op, root)
		var err error
		w.cur, err = openSession(sc, filepath.Join(w.dir, fmt.Sprintf("session%d.journal", session)))
		tr.end(s)
		if err != nil {
			tr.end(root)
			return time.Since(t0), err
		}
	}
	if w.cur == nil {
		tr.end(root)
		return 0, fmt.Errorf("paper-stream op %d: session %d failed to open", op, session)
	}
	asked, cl, err := w.cur.step(tr, op, root, k)
	tr.end(root)
	d := time.Since(t0)
	if k == streamSteps-1 {
		if cerr := w.cur.close(); err == nil {
			err = cerr
		}
		w.cur = nil
	}
	if err != nil {
		return d, fmt.Errorf("paper-stream op %d: %w", op, err)
	}
	if ref := &sc.steps[k]; asked != ref.asked || !sameClusters(cl, ref.clusters) {
		return d, fmt.Errorf("paper-stream op %d: asked %d questions (reference %d) or clusters differ", op, asked, ref.asked)
	}
	return d, nil
}

// counts covers the corpora's whole reference sessions: questions per
// append step (each a sequential round trip) and the final F1.
func (w *paperStream) counts() countMetrics {
	var total, f1 float64
	for _, sc := range w.corpora {
		for _, s := range sc.steps {
			total += float64(s.asked)
		}
		f1 += sc.f1
	}
	q := total / (streamSteps * streamCorpora)
	return countMetrics{questions: q, rounds: q, f1: f1 / streamCorpora}
}

func (w *paperStream) close() error {
	if w.cur == nil {
		return nil
	}
	err := w.cur.close()
	w.cur = nil
	return err
}
