// Package facade impersonates the root crowdjoin package, where
// journalState and its two crowd-surface wrappers live.
package facade

import "sync"

type pair struct{ a, b int }
type label int

type journalState struct {
	mu      sync.Mutex
	answers map[pair]label
}

func (j *journalState) record(p pair, l label) {
	j.mu.Lock()
	j.answers[p] = l
	j.mu.Unlock()
}

type journalOracle struct{ j *journalState }

// Label is a sanctioned wrapper: record is legal here.
func (o journalOracle) Label(p pair) label {
	l := label(1)
	o.j.record(p, l)
	return l
}

// flush has a sanctioned receiver type but is not the sanctioned method.
func (o journalOracle) flush(p pair) {
	o.j.record(p, 0) // want `journalState.record called outside the crowd-surface wrappers`
}

type journalPlatform struct{ j *journalState }

// NextLabel is a sanctioned wrapper; pointer receivers count.
func (pf *journalPlatform) NextLabel(p pair) label {
	l := label(0)
	pf.j.record(p, l)
	return l
}

// shortcut is the rogue path: a free function appending to the journal.
func shortcut(j *journalState, p pair) {
	j.record(p, 1) // want `journalState.record called outside the crowd-surface wrappers`
}

type deducer struct{ j *journalState }

// Label on a non-wrapper type: the method name alone does not sanction it.
func (d deducer) Label(p pair) {
	d.j.record(p, 1) // want `journalState.record called outside the crowd-surface wrappers`
}
