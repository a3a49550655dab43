package serve

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// TestReadLine pins the request-line reader: CRLF and LF endings, a
// line longer than the reader's buffer, an over-limit line dropped
// without losing the line after it, and a final line with no newline.
func TestReadLine(t *testing.T) {
	long := strings.Repeat("y", 100*1024)
	huge := strings.Repeat("z", maxLine+1)
	in := "a\r\n\n" + long + "\n" + huge + "\nb\nlast"
	r := bufio.NewReaderSize(strings.NewReader(in), 64*1024)
	want := []struct {
		line    string
		tooLong bool
	}{{"a", false}, {"", false}, {long, false}, {"", true}, {"b", false}, {"last", false}}
	for i, w := range want {
		line, tooLong, err := readLine(r)
		if err != nil || string(line) != w.line || tooLong != w.tooLong {
			t.Fatalf("line %d: got %d bytes tooLong=%v err=%v, want %d bytes tooLong=%v",
				i, len(line), tooLong, err, len(w.line), w.tooLong)
		}
	}
	if _, _, err := readLine(r); err != io.EOF {
		t.Fatalf("after the last line: err=%v, want EOF", err)
	}
}
