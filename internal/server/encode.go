package server

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The appenders below write the exact bytes encoding/json writes for a
// JobEvent (json.Marshal, HTML escaped: SSE data lines) and a
// ResultPayload (json.Encoder with SetEscapeHTML(false), minus its
// trailing newline: GET /jobs/{id}/result and result.json), without
// reflection or per-call allocation. FuzzJobEventJSON and
// FuzzResultPayloadJSON hold them to encoding/json byte for byte.

// appendJSON appends the event as json.Marshal encodes it.
func (e *JobEvent) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, e.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, e.Kind, true)
	if e.Pair != nil {
		dst = append(dst, `,"pair":{"a":`...)
		dst = strconv.AppendInt(dst, int64(e.Pair.A), 10)
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendInt(dst, int64(e.Pair.B), 10)
		dst = append(dst, '}')
	}
	dst = appendOmitString(dst, `,"label":`, e.Label, true)
	dst = appendOmitInt(dst, `,"round":`, e.Round)
	dst = appendOmitInt(dst, `,"size":`, e.Size)
	dst = appendOmitInt(dst, `,"component":`, e.Component)
	dst = appendOmitInt(dst, `,"absorbed":`, e.Absorbed)
	dst = appendOmitString(dst, `,"state":`, e.State, true)
	dst = appendOmitString(dst, `,"error":`, e.Error, true)
	return append(dst, '}')
}

// encode returns the body GET /jobs/{id}/result serves and result.json
// stores: the payload's JSON plus the newline json.Encoder ends with.
func (p *ResultPayload) encode() []byte {
	// A labeled pair takes 70-95 bytes; sizing the buffer up front saves
	// the doublings of a megabyte-sized Paper result.
	return append(p.appendJSON(make([]byte, 0, 256+96*len(p.Pairs)+16*len(p.Clusters))), '\n')
}

// appendJSON appends the payload as json.Encoder with SetEscapeHTML(false)
// encodes it, without the trailing newline. Likelihoods must be finite, as
// core.ValidatePairs ensures.
func (p *ResultPayload) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, p.ID, false)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, p.State, false)
	dst = appendOmitString(dst, `,"error":`, p.Error, false)
	if p.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	dst = append(dst, `,"num_objects":`...)
	dst = strconv.AppendInt(dst, int64(p.NumObjects), 10)
	dst = append(dst, `,"num_pairs":`...)
	dst = strconv.AppendInt(dst, int64(p.NumPairs), 10)
	dst = append(dst, `,"crowdsourced":`...)
	dst = strconv.AppendInt(dst, int64(p.Crowdsourced), 10)
	dst = append(dst, `,"deduced":`...)
	dst = strconv.AppendInt(dst, int64(p.Deduced), 10)
	dst = appendOmitInt(dst, `,"triage_accepted":`, p.TriageAccepted)
	dst = appendOmitInt(dst, `,"triage_rejected":`, p.TriageRejected)
	dst = appendOmitInt(dst, `,"guessed":`, p.Guessed)
	dst = appendOmitInt(dst, `,"constraint_deduced":`, p.ConstraintDeduced)
	dst = appendOmitInt(dst, `,"replayed":`, p.Replayed)
	dst = appendOmitInt(dst, `,"conflicts":`, p.Conflicts)
	dst = appendOmitInt(dst, `,"components":`, p.Components)

	dst = append(dst, `,"clusters":`...)
	if p.Clusters == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range p.Clusters {
			if i > 0 {
				dst = append(dst, ',')
			}
			if c == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, o := range c {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(o), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"pairs":`...)
	if p.Pairs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range p.Pairs {
			q := &p.Pairs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"a":`...)
			dst = strconv.AppendInt(dst, int64(q.A), 10)
			dst = append(dst, `,"b":`...)
			dst = strconv.AppendInt(dst, int64(q.B), 10)
			dst = append(dst, `,"likelihood":`...)
			dst = appendFloat(dst, q.Likelihood)
			dst = append(dst, `,"label":`...)
			dst = appendString(dst, q.Label, false)
			if q.Crowdsourced {
				dst = append(dst, `,"crowdsourced":true`...)
			}
			if q.Triaged {
				dst = append(dst, `,"triaged":true`...)
			}
			if q.Guessed {
				dst = append(dst, `,"guessed":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendOmitInt appends key and v unless v is zero (omitempty).
func appendOmitInt(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendOmitString appends key and v unless v is empty (omitempty).
func appendOmitString(dst []byte, key, v string, escapeHTML bool) []byte {
	if v == "" {
		return dst
	}
	return appendString(append(dst, key...), v, escapeHTML)
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded ("1e-7").
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends s as encoding/json quotes a string: the quote,
// the backslash and control bytes escaped (b, f, n, r and t by name, the
// rest by code), each invalid UTF-8 byte as the escape of U+FFFD, U+2028
// and U+2029 as their escapes, and, when escapeHTML is set, the HTML
// metacharacters <, > and & as theirs.
func appendString(dst []byte, s string, escapeHTML bool) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && (!escapeHTML || b != '<' && b != '>' && b != '&') {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
