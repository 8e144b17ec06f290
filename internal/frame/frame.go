// Package frame is the length-prefixed, checksummed record codec under the
// serving layer's write-ahead journal and checkpoint snapshots
// (internal/serve, DESIGN.md §12). A frame is:
//
//	[4B big-endian payload length][4B big-endian CRC32C(payload)][payload]
//
// The CRC is Castagnoli (the polynomial storage systems standardize on,
// hardware-accelerated on amd64/arm64). Frames are self-delimiting, so a
// reader can walk a buffer record by record and — critically for crash
// recovery — distinguish a clean end (io.EOF exactly at a frame boundary)
// from a torn or corrupt tail (ErrTorn): a partial header, a length beyond
// the cap, a payload cut short by the crash, or a checksum mismatch.
// Appends are a single contiguous write, so a crashed writer can tear at
// most the final frame.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxPayload caps a single frame's payload (64 MiB). The bound turns a
// corrupt or hostile length word into ErrTorn instead of an attempted
// multi-gigabyte allocation.
const MaxPayload = 1 << 26

// HeaderSize is the fixed per-frame overhead (length + CRC words).
const HeaderSize = 8

// ErrTorn reports a frame that does not parse: truncated mid-header or
// mid-payload (the torn tail a crash leaves), an implausible length, or a
// payload failing its checksum. Everything before the torn frame is
// intact; recovery truncates the file there and carries on.
var ErrTorn = errors.New("frame: torn or corrupt frame")

// crcTable is the Castagnoli CRC32C table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append appends the framed form of payload to dst and returns the
// extended slice (append-style). The frame is laid out contiguously so a
// caller can hand it to a single Write call — the property that bounds
// crash damage to one torn tail frame.
func Append(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("frame: payload %d exceeds cap %d", len(payload), MaxPayload)
	}
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// Next parses the first frame in data. It returns the payload (aliasing
// data — copy it to retain past the buffer's lifetime) and the total
// encoded size consumed. An empty input returns io.EOF (the clean end of a
// well-formed stream); anything else that does not parse — short header,
// length over the cap, truncated payload, CRC mismatch — returns ErrTorn.
func Next(data []byte) (payload []byte, n int, err error) {
	if len(data) == 0 {
		return nil, 0, io.EOF
	}
	if len(data) < HeaderSize {
		return nil, 0, ErrTorn
	}
	length := binary.BigEndian.Uint32(data[0:4])
	if length > MaxPayload {
		return nil, 0, ErrTorn
	}
	end := HeaderSize + int(length)
	if len(data) < end {
		return nil, 0, ErrTorn
	}
	payload = data[HeaderSize:end]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, 0, ErrTorn
	}
	return payload, end, nil
}
