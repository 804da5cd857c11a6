package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

// TestEntryChecksumDefinition pins Entry.Checksum to its definition,
// SHA-256 over "<len>:<field>" of the six payload fields, so checksums
// written by earlier formats and the record's framing agree.
func TestEntryChecksumDefinition(t *testing.T) {
	e := Entry{
		Key: testKey(1), Target: "fftw", Function: "fft", Sig: "void fft(cpx *x, int n)",
		AdapterC: "void fft(cpx *x, int n) {\n\tputs(\"héllo\");\n}\n", Trace: "cafef00d",
	}
	h := sha256.New()
	for _, f := range []string{e.Key, e.Target, e.Function, e.Sig, e.AdapterC, e.Trace} {
		fmt.Fprintf(h, "%d:", len(f))
		h.Write([]byte(f))
	}
	want := hex.EncodeToString(h.Sum(nil))
	rec := sealEntry(&e)
	if e.Checksum != want {
		t.Fatalf("checksum %s, want %s", e.Checksum, want)
	}
	got, err := openEntry(e.Key, rec)
	if err != nil || got != e {
		t.Fatalf("openEntry = %+v, %v; want %+v", got, err, e)
	}
}

// TestEntryDecodeStrict: every malformed spelling of a record is
// rejected, with the reason.
func TestEntryDecodeStrict(t *testing.T) {
	e := Entry{Key: "k", Target: "ffta", AdapterC: "x"}
	good := sealEntry(&e)
	body := string(good[1:])
	for _, tc := range []struct {
		name string
		val  string
		want error
	}{
		{"empty", "", errEntryFormat},
		{"json", `{"key":"k"}`, errEntryFormat},
		{"format byte", "\x02" + body, errEntryFormat},
		{"truncated", string(good[:len(good)-1]), errEntryOverrun},
		{"no colon", "\x011", errEntryLength},
		{"no digits", "\x01:k", errEntryLength},
		{"leading zero", "\x0101:k" + body[3:], errEntryLength},
		{"sign", "\x01+1:k" + body[3:], errEntryLength},
		{"overlong", "\x0199:k" + body[3:], errEntryOverrun},
		{"huge", "\x0199999999999999999999:k", errEntryOverrun},
		{"trailing", string(good) + "x", errEntryTrailing},
	} {
		if _, _, err := decodeEntry([]byte(tc.val)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := openEntry("other", good); !errors.Is(err, errEntryKey) {
		t.Errorf("wrong key: err = %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	if _, err := openEntry("k", bad); !errors.Is(err, errEntryChecksum) {
		t.Errorf("wrong checksum: err = %v", err)
	}
}
