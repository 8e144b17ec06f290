package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<16),
		{0x00},
	}
	var buf []byte
	for _, p := range payloads {
		var err error
		if buf, err = Append(buf, p); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i, want := range payloads {
		got, n, err := Next(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
		if n != HeaderSize+len(want) {
			t.Fatalf("frame %d: consumed %d, want %d", i, n, HeaderSize+len(want))
		}
		off += n
	}
	if _, _, err := Next(buf[off:]); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

func TestFrameOversizedPayloadRejected(t *testing.T) {
	big := make([]byte, MaxPayload+1)
	if _, err := Append(nil, big); err == nil {
		t.Fatal("AppendFrame accepted an over-cap payload")
	}
}

// TestFrameTornVariants checks that every way a crash can damage the final
// frame — truncation at any byte boundary, a flipped payload bit, an
// implausible length word — reads back as ErrTorn, never a bogus
// payload and never a panic.
func TestFrameTornVariants(t *testing.T) {
	buf, err := Append(nil, []byte("journal record"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := Next(buf[:cut]); !errors.Is(err, ErrTorn) {
			t.Fatalf("truncation at %d: got %v, want ErrTorn", cut, err)
		}
	}
	for i := range buf {
		corrupt := bytes.Clone(buf)
		corrupt[i] ^= 0x01
		payload, _, err := Next(corrupt)
		if err == nil && !bytes.Equal(payload, []byte("journal record")) {
			t.Fatalf("bit flip at %d: accepted altered payload %q", i, payload)
		}
		if err != nil && !errors.Is(err, ErrTorn) {
			t.Fatalf("bit flip at %d: got %v, want ErrTorn", i, err)
		}
	}
	var huge [HeaderSize]byte
	binary.BigEndian.PutUint32(huge[0:4], MaxPayload+1)
	if _, _, err := Next(huge[:]); !errors.Is(err, ErrTorn) {
		t.Fatalf("over-cap length: got %v, want ErrTorn", err)
	}
}
