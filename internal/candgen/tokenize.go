package candgen

import (
	"math"
	"slices"
	"unicode"
	"unicode/utf8"
)

// tokenizer interns record texts into a Scorer's token arena. Tokens are
// similarity.Tokenize's — maximal runs of letters and digits, lowercased —
// but the scan works on bytes. An ASCII byte is kept (a–z, 0–9),
// lowercased (A–Z) or a separator; only bytes ≥ 0x80 decode a rune and
// consult package unicode, and invalid UTF-8 decodes to U+FFFD, a
// separator, as in a range loop. A token is looked up straight from the
// scan buffer, so only a new token allocates its dictionary key. Ids are
// assigned in first-seen order and each record emits a token once, so the
// dictionary, ids and document frequencies are exactly those of interning
// similarity.TokenSet's output record by record
// (FuzzTokenIDsMatchTokenSet pins this).
type tokenizer struct {
	dict map[string]int32
	// last[id] is one more than the last record that emitted token id,
	// which drops a repeat within a record without a per-record set.
	last []int32
	buf  []byte // the token being scanned
}

func newTokenizer() *tokenizer {
	return &tokenizer{dict: make(map[string]int32)}
}

// add tokenizes text into s's open record (the one after the last
// endRecord): each token the record has not emitted yet is interned,
// counted in s.df and appended to s.arena. A record's fields may be added
// one call at a time; the space Record.Text joins them with is a
// separator, so the tokens are the same.
func (tz *tokenizer) add(s *Scorer, text string) {
	mark := int32(len(s.offs)) // one more than the open record's index
	buf := tz.buf[:0]
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if 'a' <= c && c <= 'z' || '0' <= c && c <= '9' {
				buf = append(buf, c)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				continue
			}
		}
		if len(buf) > 0 {
			tz.intern(s, buf, mark)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		tz.intern(s, buf, mark)
	}
	tz.buf = buf
}

// intern resolves one token to its id, assigning the next id to a new
// token, and appends it to the open record unless the record (mark) has
// it already.
func (tz *tokenizer) intern(s *Scorer, tok []byte, mark int32) {
	id, ok := tz.dict[string(tok)]
	if !ok {
		id = int32(len(tz.dict))
		tz.dict[string(tok)] = id
		s.df = append(s.df, 0)
		tz.last = append(tz.last, 0)
	}
	if tz.last[id] != mark {
		tz.last[id] = mark
		s.df[id]++
		s.arena = append(s.arena, id)
	}
}

// endRecord closes s's open record: its token ids, appended in first-seen
// order, are sorted for the merge-based similarity.
func (s *Scorer) endRecord() {
	slices.Sort(s.arena[s.offs[len(s.offs)-1]:])
	if len(s.arena) > math.MaxInt32 {
		// The CSR offsets are int32; a >2^31-token corpus needs a
		// different layout, not a silent wraparound.
		panic("candgen: token arena exceeds int32 offset range")
	}
	s.offs = append(s.offs, int32(len(s.arena)))
}
