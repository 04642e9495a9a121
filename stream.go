package crowdjoin

import (
	"errors"
	"fmt"

	"crowdjoin/internal/candgen"
	"crowdjoin/internal/core"
)

// ComponentMerge records that appending records bridged two established
// components of the candidate graph: every object and pair of Absorbed now
// belongs to Winner. Ids are stable — assigned when a component gains its
// first candidate pair, with the lower id surviving every merge.
type ComponentMerge = core.ComponentMerge

// AppendResult summarizes one Join.Append / Join.AppendAcross call.
type AppendResult struct {
	// NumRecords is the number of records in the appended batch.
	NumRecords int
	// NumObjects is the size of the object universe after the append.
	NumObjects int
	// NewPairs holds the candidate pairs the batch introduced (each touches
	// at least one new record), sorted by likelihood descending. IDs are
	// unset — dense pair IDs are assigned per Run over the whole candidate
	// set. For IDF-weighted matchers the likelihoods are provisional
	// (scored with the document frequencies at append time); Run rescores
	// the full corpus exactly.
	NewPairs []Pair
	// Merges lists the established components this batch bridged, in the
	// order the merges happened.
	Merges []ComponentMerge
}

// streamState is the session state behind Join.Append: the incremental
// candidate index and the persistent component partitioner, whose stable
// ids name the components in EventComponentsMerged. (Crowd
// answers are cached at the Join level — see Join.kept — so even a Run
// executed before the first Append is never re-bought.) Guarded by
// Join.streamMu.
type streamState struct {
	idx *candgen.StreamIndex
	ip  *core.IncrementalPartitioner
	// n0 is the universe size before the first append — the journal's
	// objects fingerprint.
	n0 int
	// arrivals holds the size of each non-empty appended batch, in order —
	// the session's arrival history, matched against the journal's r
	// entries on every Run.
	arrivals []int
	// appends counts Append calls (the Round of EventRecordAppended).
	appends int
}

// Append adds records to a running deduplication session mid-stream:
// the new records become objects len(texts-so-far).. in arrival order,
// candidate pairs against the whole corpus are generated incrementally
// (no rebuild of the index), and the component partition is updated live.
// The next Run labels the grown candidate set; answers already bought —
// via an attached journal, or cached in memory from this session's earlier
// Runs — are never re-crowdsourced.
//
// Append requires a WithTexts input; bipartite sessions append through
// AppendAcross. It is safe to call concurrently with Run: the batch is
// integrated immediately and picked up by the next Run.
//
// With WithProgress, each append emits one EventRecordAppended (Size is
// the batch's record count, Round the 0-based append ordinal) followed by
// one EventComponentsMerged per bridged component pair.
func (j *Join) Append(texts ...string) (*AppendResult, error) {
	if j.bipartite {
		return nil, errors.New("crowdjoin: Append on a bipartite session; use AppendAcross")
	}
	return j.appendBatch(texts, nil)
}

// AppendAcross adds records to both sources of a bipartite session. The
// batch's a-records become objects before its b-records; as with
// WithTextsAcross, pairs never form within a source. Either slice may be
// empty.
func (j *Join) AppendAcross(a, b []string) (*AppendResult, error) {
	if !j.bipartite {
		return nil, errors.New("crowdjoin: AppendAcross on a non-bipartite session; use Append")
	}
	texts := make([]string, 0, len(a)+len(b))
	texts = append(texts, a...)
	texts = append(texts, b...)
	sides := make([]uint8, len(texts))
	for i := len(a); i < len(texts); i++ {
		sides[i] = 1
	}
	return j.appendBatch(texts, sides)
}

// appendBatch integrates one record batch under streamMu.
func (j *Join) appendBatch(texts []string, sides []uint8) (*AppendResult, error) {
	if !j.haveTexts {
		return nil, errors.New("crowdjoin: Append requires a texts input (WithTexts or WithTextsAcross)")
	}
	if j.cascade != nil {
		return nil, errors.New("crowdjoin: Append is incompatible with WithCascade (the cascade descends thresholds over a fixed input)")
	}
	j.streamMu.Lock()
	defer j.streamMu.Unlock()
	if j.stream == nil {
		if err := j.activateStream(); err != nil {
			return nil, err
		}
	}
	st := j.stream
	delta, err := st.idx.Append(texts, sides)
	if err != nil {
		return nil, err
	}
	st.ip.Grow(st.idx.NumRecords())
	merges, err := st.ip.AddPairs(delta)
	if err != nil {
		return nil, fmt.Errorf("crowdjoin: partitioning appended pairs: %w", err)
	}
	if len(texts) > 0 {
		st.arrivals = append(st.arrivals, len(texts))
	}
	ordinal := st.appends
	st.appends++
	if j.progress != nil {
		j.progress(Event{Kind: EventRecordAppended, Round: ordinal, Size: len(texts)})
		for _, m := range merges {
			j.progress(Event{Kind: EventComponentsMerged, Component: m.Winner, Absorbed: m.Absorbed})
		}
	}
	return &AppendResult{
		NumRecords: len(texts),
		NumObjects: st.idx.NumRecords(),
		NewPairs:   append([]Pair(nil), delta...),
		Merges:     merges,
	}, nil
}

// activateStream switches the session to streaming on the first Append:
// the initial corpus is fed to a fresh incremental index as its first
// batch (it is not a journaled arrival — it is the fingerprinted initial
// universe), and its candidate pairs seed the component partitioner.
func (j *Join) activateStream() error {
	w := candgen.Unweighted
	if j.matcher.UseIDF {
		w = candgen.IDFWeighted
	}
	idx, err := candgen.NewStreamIndex(w, j.matcher.Threshold, j.bipartite)
	if err != nil {
		return err
	}
	texts := j.texts
	var sides []uint8
	if j.bipartite {
		texts = make([]string, 0, len(j.texts)+len(j.textsB))
		texts = append(texts, j.texts...)
		texts = append(texts, j.textsB...)
		sides = make([]uint8, len(texts))
		for i := len(j.texts); i < len(texts); i++ {
			sides[i] = 1
		}
	}
	initial, err := idx.Append(texts, sides)
	if err != nil {
		return err
	}
	ip := core.NewIncrementalPartitioner(len(texts))
	if _, err := ip.AddPairs(initial); err != nil {
		return fmt.Errorf("crowdjoin: partitioning initial pairs: %w", err)
	}
	j.stream = &streamState{
		idx: idx,
		ip:  ip,
		n0:  len(texts),
	}
	return nil
}
