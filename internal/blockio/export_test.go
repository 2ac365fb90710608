package blockio

import (
	"io"
	"os"
)

// BlockPayloads returns the compressed payload of every block frame of
// the block file at path, in file order: the bytes a whole-block copy
// moves as they are.
func BlockPayloads(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	end := st.Size()
	if _, dataEnd, ok := readIndex(f, end); ok {
		end = dataEnd
	}
	fs, err := newFrameScanner(f, headerSize)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for fs.off < end {
		_, _, comp, err := fs.frame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, append([]byte(nil), comp...))
	}
	return out, nil
}
