package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCorpus is a few logs' worth of frames, valid and hostile:
// the fuzzer mutates them into their neighbours.
func fuzzSeedCorpus() [][]byte {
	e := Entry{Key: "aaaa", Target: "ffta", Function: "fft", AdapterC: "void fft(cpx *x, int n) {}\n"}
	entry := encodeFrame(sealEntry(&e))
	tomb := encodeFrame(tombstone("aaaa"))
	badRecord := append([]byte(nil), entry...)
	badRecord[len(badRecord)-1] ^= 1
	badHeader := append([]byte(nil), entry...)
	badHeader[9] ^= 1
	huge := make([]byte, 2*frameHeader) // a checked header claiming 2 GiB
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
	binary.LittleEndian.PutUint32(huge[8:12], crc32.Checksum(huge[0:8], castagnoli))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		entry,
		cat(entry, tomb),
		cat(entry, entry[:len(entry)/2]), // torn tail
		cat(badRecord, tomb),             // damaged record, scan goes on
		cat(badHeader, entry),            // damaged header ends the prefix
		huge,
		make([]byte, 2*frameHeader),
		[]byte("FACCLOG1 not a frame at all"),
	}
}

// FuzzStoreDecode throws hostile bytes at the frame scanner that Open
// trusts after a crash. It must never panic. Every frame it accepts
// must lie inside the valid prefix it reports and re-encode to exactly
// its bytes, and the prefix must end at the input's end or at bytes the
// scanner refused: a torn tail is reported, never served.
func FuzzStoreDecode(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := int64(0)
		end, err := scanFrames(bytes.NewReader(data), 0, int64(len(data)), func(off int64, rec []byte, ok bool) {
			if off != next {
				t.Fatalf("frame at %d, want %d: frames must tile the prefix", off, next)
			}
			fr := data[off : off+frameHeader+int64(len(rec))]
			next = off + int64(len(fr))
			if !ok {
				return // damaged record: the caller quarantines it
			}
			if got := encodeFrame(rec); !bytes.Equal(got, fr) {
				t.Fatalf("accepted frame re-encodes differently:\n got %q\nwant %q", got, fr)
			}
			if rec[0] == entryFormat {
				checkEntry(rec)
				decodeEntry(rec)
			}
		})
		if err != nil {
			t.Fatalf("scan of an in-memory log failed: %v", err)
		}
		if end != next || end > int64(len(data)) {
			t.Fatalf("valid prefix ends at %d, frames end at %d (len %d)", end, next, len(data))
		}
		if rest := data[end:]; len(rest) >= frameHeader {
			if n, ok := frameLen(rest); ok && n <= len(rest)-frameHeader {
				t.Fatalf("prefix ends at %d before a whole frame with a valid header", end)
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
