package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// fuzzPageSize keeps fuzz inputs small while exercising every format
// path (header, meta payload, node items, WAL records).
const fuzzPageSize = 256

// fuzzSeedCorpus builds one valid specimen of every on-disk structure;
// the fuzzer mutates them into hostile neighbours.
func fuzzSeedCorpus() [][]byte {
	var seeds [][]byte

	// A sealed leaf with an inline and a spilled item.
	leaf := &node{typ: pageLeaf, items: []item{
		{key: []byte("o\x00aaaa"), val: []byte(`{"key":"aaaa"}`)},
		{key: []byte("o\x00bbbb"), ovfl: 7, ovflLen: 300, ovflCRC: 0xDEADBEEF},
	}}
	if buf, err := leaf.encode(fuzzPageSize, 3, 9); err == nil {
		seeds = append(seeds, buf)
	}
	// A sealed branch.
	branch := &node{typ: pageBranch, items: []item{
		{key: []byte("o\x00aaaa"), child: 3},
		{key: []byte("t\x00ffta"), child: 4},
	}}
	if buf, err := branch.encode(fuzzPageSize, 5, 9); err == nil {
		seeds = append(seeds, buf)
	}
	// A meta page.
	seeds = append(seeds, encodeMeta(meta{txid: 12, root: 5, npages: 9, freeHead: 8}, 0, fuzzPageSize))
	// A freelist page.
	_, _, fl := encodeFreelist([]uint64{3, 4, 6}, fuzzPageSize, 12, func() uint64 { return 8 })
	for _, buf := range fl {
		seeds = append(seeds, buf)
	}
	// An overflow page.
	ov := make([]byte, fuzzPageSize)
	copy(ov[pageHeaderSize:], []byte("spilled adapter bytes"))
	sealPage(ov, pageOverflow, 21, 7, 9, 0)
	seeds = append(seeds, ov)
	// A WAL record wrapping two of the pages above.
	pages := map[uint64][]byte{}
	if len(seeds) >= 2 {
		pages[3] = seeds[0]
		pages[5] = seeds[1]
	}
	seeds = append(seeds, encodeWALRecord(meta{txid: 13, root: 5, npages: 9}, pages, fuzzPageSize))
	// A truncated record and raw garbage.
	if n := len(seeds); n > 0 {
		last := seeds[n-1]
		seeds = append(seeds, last[:len(last)/2])
	}
	seeds = append(seeds, []byte("FWAL\xff\xff\xff\xff not a record"))
	return seeds
}

// FuzzStoreDecode throws hostile bytes at the page-level decoders the
// store trusts after a crash: page verification, node decoding, meta
// decoding, and WAL record parsing (FuzzEntryDecode covers the entry
// records inside tree values). The contract under fuzzing is the
// quarantine contract: hostile input yields errors (corrupt-page or
// parse errors), never panics, and never a silently-accepted structure
// that re-encodes differently (a wrong adapter in disguise).
func FuzzStoreDecode(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Page-shaped view: pad or trim to one page.
		page := make([]byte, fuzzPageSize)
		copy(page, data)

		for _, id := range []uint64{0, 3} {
			if err := verifyPage(page, id); err == nil {
				// A page that passes verification must decode cleanly by
				// type — structural garbage behind a valid checksum would
				// mean the checksum covers too little.
				switch typ := binary.LittleEndian.Uint16(page[4:6]); typ {
				case pageLeaf, pageBranch:
					n, derr := decodeNode(page, id)
					if derr == nil {
						// Round-trip: re-encoding a decoded node must
						// reproduce content-identical items.
						if buf, eerr := n.encode(fuzzPageSize, id, binary.LittleEndian.Uint64(page[16:24])); eerr == nil {
							n2, derr2 := decodeNode(buf, id)
							if derr2 != nil {
								t.Fatalf("re-encoded node fails decode: %v", derr2)
							}
							if len(n2.items) != len(n.items) {
								t.Fatalf("round-trip changed item count: %d != %d", len(n2.items), len(n.items))
							}
							for i := range n.items {
								if !bytes.Equal(n.items[i].key, n2.items[i].key) || !bytes.Equal(n.items[i].val, n2.items[i].val) {
									t.Fatalf("round-trip changed item %d", i)
								}
							}
						}
					}
				case pageMeta:
					decodeMeta(page, id, fuzzPageSize)
				}
			}
		}

		// WAL-shaped view: arbitrary length.
		recs, validLen, _ := decodeWALRecords(data, fuzzPageSize)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("wal validLen %d out of range [0,%d]", validLen, len(data))
		}
		for _, rec := range recs {
			// Every page inside an accepted record must itself verify —
			// replay writes these bytes straight into the database.
			for id, img := range rec.pages {
				if err := verifyPage(img, id); err != nil {
					t.Fatalf("accepted WAL record carries unverified page: %v", err)
				}
			}
		}
	})
}

// entrySeedCorpus is one valid entry record and its hostile neighbours:
// truncated, a length that runs past the end, trailing bytes, and a
// length with a leading zero.
func entrySeedCorpus() [][]byte {
	valid := sealEntry(&Entry{
		Key: "aaaa", Target: "ffta", Function: "fft", Sig: "void fft(cpx *x, int n)",
		AdapterC: "void fft(cpx *x, int n) {\n    /* \"quoted\" */\n    accel_cfft(x, x, n);\n}\n",
		Trace:    "cafef00d",
	})
	cut := bytes.LastIndex(valid, []byte("64:"))
	overlong := append(append(append([]byte(nil), valid[:cut]...), "65:"...), valid[cut+3:]...)
	leadingZero := append(append([]byte{entryFormat}, "04:aaaa"...), valid[len("\x014:aaaa"):]...)
	return [][]byte{
		valid,
		valid[:len(valid)/2],
		overlong,
		append(append([]byte(nil), valid...), 'x'),
		leadingZero,
	}
}

// FuzzEntryDecode throws hostile bytes at the entry record decoder. It
// must never panic, and any value it accepts must re-encode to the same
// bytes — a decoder that accepted two spellings of one entry could let
// damage through unnoticed. A value that also verifies must be exactly
// the record Put would write for its fields.
func FuzzEntryDecode(f *testing.F) {
	for _, seed := range entrySeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, payloadEnd, err := decodeEntry(data)
		if err != nil {
			return
		}
		if payloadEnd < 1 || payloadEnd > len(data) {
			t.Fatalf("payload end %d out of range [1,%d]", payloadEnd, len(data))
		}
		if got := encodeEntry(&e); !bytes.Equal(got, data) {
			t.Fatalf("accepted record re-encodes differently:\n got %q\nwant %q", got, data)
		}
		if _, err := openEntry(e.Key, data); err == nil {
			if got := sealEntry(&e); !bytes.Equal(got, data) {
				t.Fatalf("verified record differs from the one Put writes:\n got %q\nwant %q", got, data)
			}
		}
	})
}

// TestGenerateFuzzCorpus writes the seed corpora into testdata so the
// committed corpora and the in-code seeds never drift. It only rewrites
// files when FACC_GEN_CORPUS=1; otherwise it verifies they exist.
func TestGenerateFuzzCorpus(t *testing.T) {
	for target, seeds := range map[string][][]byte{
		"FuzzStoreDecode": fuzzSeedCorpus(),
		"FuzzEntryDecode": entrySeedCorpus(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if os.Getenv("FACC_GEN_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				body := []byte("go test fuzz v1\n[]byte(" + quoteBytes(seed) + ")\n")
				name := filepath.Join(dir, fmtSeedName(i))
				if err := os.WriteFile(name, body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		des, err := os.ReadDir(dir)
		if err != nil || len(des) < len(seeds) {
			t.Fatalf("committed %s corpus missing (%d files, want >= %d): regenerate with FACC_GEN_CORPUS=1 (err=%v)", target, len(des), len(seeds), err)
		}
	}
}

func fmtSeedName(i int) string {
	const hexdigits = "0123456789abcdef"
	return "seed-" + string([]byte{hexdigits[i/16%16], hexdigits[i%16]})
}

// quoteBytes renders data as a Go double-quoted string literal, the
// format `go test fuzz v1` corpus files require.
func quoteBytes(data []byte) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for _, c := range data {
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c >= 0x20 && c < 0x7f:
			b.WriteByte(c)
		default:
			const hexdigits = "0123456789abcdef"
			b.WriteString(`\x`)
			b.WriteByte(hexdigits[c>>4])
			b.WriteByte(hexdigits[c&0xf])
		}
	}
	b.WriteByte('"')
	return b.String()
}
