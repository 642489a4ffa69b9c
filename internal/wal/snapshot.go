package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
)

// Snapshots reuse the EDB image encoding of storage.Save (relation names
// and tuples in term encoding, sorted for determinism), sealed in a
// CRC-checked envelope so a damaged checkpoint is detected rather than
// half-loaded:
//
//	magic | len(u64le) | crc32(u32le over payload) | payload(EDB image)

var snapMagic = []byte("GLUENAIL-SNAP1\n")

// encodeSnapshot serializes every relation of store into a sealed
// snapshot image.
func encodeSnapshot(store storage.Store) ([]byte, error) {
	var body bytes.Buffer
	if err := storage.Save(&body, store); err != nil {
		return nil, err
	}
	payload := body.Bytes()
	out := make([]byte, 0, len(snapMagic)+12+len(payload))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

// writeSnapshotFS atomically writes a sealed snapshot of store to path:
// temp file, fsync, rename. The caller fsyncs the directory.
func writeSnapshotFS(fsys fsio.FS, path string, store storage.Store) error {
	data, err := encodeSnapshot(store)
	if err != nil {
		return err
	}
	at, err := fsio.WriteAtomic(fsys, path, true, fsio.Bytes(data))
	return storage.IOFault("checkpoint", at, err)
}

// readSnapshotFS verifies and loads the snapshot at path into store.
func readSnapshotFS(fsys fsio.FS, path string, store storage.Store) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	if err := verifySnapshot(path, data); err != nil {
		return err
	}
	head := len(snapMagic) + 12
	return storage.Load(bytes.NewReader(data[head:]), store)
}

// verifySnapshot checks the envelope of a snapshot image, returning a
// typed CorruptError naming the artifact on any mismatch.
func verifySnapshot(path string, data []byte) error {
	head := len(snapMagic) + 12
	if len(data) < head || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return &storage.CorruptError{Artifact: "snapshot", Path: path, Offset: 0,
			Detail: "not a Glue-Nail snapshot"}
	}
	plen := binary.LittleEndian.Uint64(data[len(snapMagic):])
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+8:])
	payload := data[head:]
	if uint64(len(payload)) != plen {
		return &storage.CorruptError{Artifact: "snapshot", Path: path, Offset: int64(head),
			Detail: "payload length does not match header"}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return &storage.CorruptError{Artifact: "snapshot", Path: path, Offset: int64(head),
			Detail: "payload checksum mismatch"}
	}
	return nil
}
