package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// encodeStrings seed the string fields: HTML metacharacters, the two
// JavaScript line separators, invalid and truncated UTF-8, every control
// byte class, quotes and backslashes, and multi-byte text.
var encodeStrings = []string{
	"",
	"plain",
	"a<b>c&d",
	"line\u2028sep\u2029para",
	"bad \xff utf8 \xe2\x80 truncated \xc3",
	"ctl \x00\x01\b\f\n\r\t\x1f\x7f end",
	`quote " backslash \ slash /`,
	"caf\u00e9 \u65e5\u672c \U0001F600 \ufffd",
	"<script>alert('x')</script>&amp;",
}

// FuzzJobEventJSON holds JobEvent.appendJSON to json.Marshal byte for
// byte — the SSE data line — appending after a prefix it must not touch.
func FuzzJobEventJSON(f *testing.F) {
	for i, s := range encodeStrings {
		f.Add(int64(i), "pair-crowdsourced", i%2 == 0, int32(i), int32(-i), "matching", 0, i, -i, 1<<40, "", s)
		f.Add(int64(-i)<<40, s, i%2 == 1, int32(1<<31-1), int32(-1<<31), s, -i, 0, i, 0, s, "")
	}
	f.Fuzz(func(t *testing.T, seq int64, kind string, hasPair bool, a, b int32, label string,
		round, size, component, absorbed int, state, errMsg string) {
		e := JobEvent{Seq: seq, Kind: kind, Label: label, Round: round, Size: size,
			Component: component, Absorbed: absorbed, State: state, Error: errMsg}
		if hasPair {
			e.Pair = &EventPair{A: a, B: b}
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got := e.appendJSON([]byte("data: "))
		if !bytes.Equal(got, append([]byte("data: "), want...)) {
			t.Fatalf("appendJSON\n got %q\nwant data: %q", got, want)
		}
	})
}

// FuzzResultPayloadJSON holds ResultPayload.appendJSON to json.Encoder
// with SetEscapeHTML(false), minus its newline — the GET /result body —
// and encode to the Encoder's output with it. The payload is decoded from
// a JSON document, so nil and empty slices, omitted zero fields and every
// float the document spells come from the fuzzer; decoding yields only
// finite floats, the only likelihoods core.ValidatePairs lets through.
// errMsg and label replace the error and every other pair's label with
// raw strings, which a document cannot carry (invalid UTF-8).
func FuzzResultPayloadJSON(f *testing.F) {
	docs := []string{
		`{"id":"j-0123456789ab","state":"done","clusters":null,"pairs":null}`,
		`{"id":"j-1","state":"done","clusters":[],"pairs":[]}`,
		`{"id":"j-2","state":"cancelled","partial":true,"num_objects":4,"num_pairs":3,
		  "crowdsourced":1,"deduced":1,"triage_accepted":2,"triage_rejected":3,"guessed":4,
		  "constraint_deduced":5,"replayed":6,"conflicts":7,"components":8,
		  "clusters":[[0,1],null,[],[2],[-5,2147483647]],
		  "pairs":[{"a":0,"b":1,"likelihood":0,"label":"matching","crowdsourced":true},
		           {"a":1,"b":2,"likelihood":1,"label":"non-matching","triaged":true},
		           {"a":2,"b":3,"likelihood":1e-7,"label":"unlabeled","guessed":true}]}`,
		`{"id":"j-3","state":"failed","num_objects":-1,"clusters":[[0]],
		  "pairs":[{"a":-1,"b":-2147483648,"likelihood":1e21},{"likelihood":5e-324},
		           {"likelihood":0.30000000000000004},{"likelihood":-0},{"likelihood":1e-6},
		           {"likelihood":9.999999999999999e-7},{"likelihood":1.7976931348623157e308},
		           {"likelihood":-123456.789e-12},{"likelihood":999999999999999999999},
		           {"likelihood":1e-100},{"likelihood":1.5e21},{"likelihood":1e20}]}`,
	}
	for i, doc := range docs {
		for j, s := range encodeStrings {
			if (i+j)%2 == 0 {
				f.Add(doc, s, encodeStrings[(j+3)%len(encodeStrings)])
			}
		}
	}
	f.Fuzz(func(t *testing.T, doc, errMsg, label string) {
		var p ResultPayload
		if json.Unmarshal([]byte(doc), &p) != nil {
			return
		}
		p.Error = errMsg
		for i := 0; i < len(p.Pairs); i += 2 {
			p.Pairs[i].Label = label
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(&p); err != nil {
			t.Fatal(err)
		}
		if got := p.encode(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encode\n got %q\nwant %q", got, want.Bytes())
		}
		got := p.appendJSON([]byte("x"))
		if !bytes.Equal(got[1:], bytes.TrimSuffix(want.Bytes(), []byte("\n"))) || got[0] != 'x' {
			t.Fatalf("appendJSON after a prefix: %q", got)
		}
	})
}
