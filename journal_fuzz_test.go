package crowdjoin

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parsedJournal is what a journal read yields before the first append.
type parsedJournal struct {
	answers                           map[pairKey]Label
	pendingArrivals                   []int
	needVoid, needHeader, needObjects bool
}

// openJournalReference is the strings-based journal reader openJournal
// replaced: the content is split into lines and every line into fields,
// each parsed with strconv. FuzzOpenJournal holds openJournal to it.
func openJournalReference(raw []byte, initialObjects int, arrivals []int) (*parsedJournal, error) {
	pj := &parsedJournal{answers: make(map[pairKey]Label)}
	content := string(raw)
	if len(content) > 0 && !strings.HasSuffix(content, "\n") {
		pj.needVoid = true
		if i := strings.LastIndexByte(content, '\n'); i >= 0 {
			content = content[:i+1]
		} else {
			content = ""
		}
	}
	sawHeader, sawObjects := false, false
	universe := int64(initialObjects)
	consumed := 0
	for _, line := range strings.Split(strings.TrimSuffix(content, "\n"), "\n") {
		if line == "" || strings.HasSuffix(line, "#") {
			continue
		}
		if !sawHeader {
			if line != journalHeader && line != journalHeaderV1 {
				return nil, fmt.Errorf("crowdjoin: journal stream does not start with %q", journalHeader)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "objects" {
			if fields[1] != strconv.Itoa(initialObjects) {
				return nil, fmt.Errorf("crowdjoin: journal was written for %s objects, this join has %d", fields[1], initialObjects)
			}
			sawObjects = true
			continue
		}
		if len(fields) == 2 && fields[0] == "r" {
			k, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("crowdjoin: malformed journal entry %q", line)
			}
			if consumed >= len(arrivals) {
				return nil, fmt.Errorf("crowdjoin: journal records an arrival of %d records this session has not appended", k)
			}
			if int(k) != arrivals[consumed] {
				return nil, fmt.Errorf("crowdjoin: journal arrival %d has %d records, this session appended %d", consumed, k, arrivals[consumed])
			}
			universe += k
			consumed++
			continue
		}
		if len(fields) != 3 || (fields[0] != "m" && fields[0] != "n") {
			return nil, fmt.Errorf("crowdjoin: malformed journal entry %q", line)
		}
		a, errA := strconv.ParseInt(fields[1], 10, 32)
		b, errB := strconv.ParseInt(fields[2], 10, 32)
		if errA != nil || errB != nil {
			return nil, fmt.Errorf("crowdjoin: malformed journal entry %q", line)
		}
		if a < 0 || a >= universe || b < 0 || b >= universe || a == b {
			return nil, fmt.Errorf("crowdjoin: journal entry %q outside the %d-object universe", line, universe)
		}
		l := NonMatching
		if fields[0] == "m" {
			l = Matching
		}
		k := keyOf(int32(a), int32(b))
		if prev, ok := pj.answers[k]; ok && prev != l {
			return nil, fmt.Errorf("crowdjoin: conflicting journal entries for pair (%d, %d)", k.a, k.b)
		}
		pj.answers[k] = l
	}
	pj.needHeader = !sawHeader
	pj.needObjects = !sawObjects
	pj.pendingArrivals = append([]int(nil), arrivals[consumed:]...)
	return pj, nil
}

// FuzzOpenJournal: openJournal never panics, accepts exactly the journals
// the reference reader accepts (with the same error otherwise), and reads
// the same answers, pending arrivals and preamble flags from them. The
// session's arrival history is fuzzed too: each byte of arr is one
// appended batch of 1 + arr[i]%4 records.
func FuzzOpenJournal(f *testing.F) {
	for _, seed := range []struct {
		journal string
		objects uint8
		arr     []byte
	}{
		{"crowdjoin-journal v2\nobjects 6\nm 0 1\nn 1 2\nm 0 2\n", 6, nil},
		{"crowdjoin-journal v2\nobjects 6\nm 0 1\nr 2\nn 5 7\nr 1\nm 6 8\n", 6, []byte{1, 0, 3}},
		{"crowdjoin-journal v1\nobjects 4\nm 1 0\nn 3 2\n", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm 0 1\nn 2 ", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm 0 1\nn 2#\nm 2 3\n", 4, nil},
		{"crowdjoin-journal v2\n\nm 0 1\nm 0 1\nm 1 0\n", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm 0 1\nn 1 0\n", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm\t0  1\nn 001 +2\nm 0 3\r\n", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm 0 9999999999\n", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm 0 1x\nn 0 2 \n", 4, nil},
		{"crowdjoin-journal v2\nobjects 4\nm 2 2\n", 4, nil},
		{"crowdjoin-journal v2\nobjects 04\nr 0\n", 4, []byte{0}},
		{"crowdjoin-journal v3\n", 4, nil},
		{"#\ncrowdjoin-journal v2\n", 0, nil},
		{"", 3, []byte{2}},
	} {
		f.Add([]byte(seed.journal), seed.objects, seed.arr)
	}
	f.Fuzz(func(t *testing.T, data []byte, objects uint8, arr []byte) {
		var arrivals []int
		for _, b := range arr {
			arrivals = append(arrivals, 1+int(b%4))
		}
		want, werr := openJournalReference(data, int(objects), arrivals)
		got, gerr := openJournal(bytes.NewBuffer(bytes.Clone(data)), int(objects), arrivals)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("openJournal err = %v, reference err = %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		read := parsedJournal{
			answers:         got.answers,
			pendingArrivals: got.pendingArrivals,
			needVoid:        got.needVoid,
			needHeader:      got.needHeader,
			needObjects:     got.needObjects,
		}
		if !reflect.DeepEqual(read, *want) {
			t.Fatalf("openJournal read %+v, reference %+v", read, *want)
		}
	})
}
