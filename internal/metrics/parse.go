package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Series is one sample read back from the text exposition: the reader's
// side of writeSeries.
type Series struct {
	Name   string
	Labels []Label // sorted by name, as written
	Value  float64
}

// SeriesKey spells a series the way the exposition and the history
// sampler do: `name`, or `name{label="value",...}` with the labels sorted
// by name and their values escaped. It is the key of that series in a
// HistorySnapshot.
func SeriesKey(name string, labels ...Label) string {
	var b strings.Builder
	b.WriteString(name)
	writeLabels(&b, labels)
	return b.String()
}

// ParseText reads what WritePrometheus writes: one Series per sample
// line, in order, comment and blank lines skipped.
func ParseText(r io.Reader) ([]Series, error) {
	var out []Series
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSeries(line)
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		out = append(out, Series{Name: name, Labels: labels, Value: v})
	}
	return out, sc.Err()
}

// SplitKey is the inverse of SeriesKey: it splits a history snapshot's
// key into the series name and its labels.
func SplitKey(key string) (name string, labels []Label, err error) {
	name, labels, rest, err := splitSeries(key)
	if err == nil && rest != "" {
		err = fmt.Errorf("metrics: trailing %q in series key %q", rest, key)
	}
	return name, labels, err
}

// splitSeries reads a series name and the label block writeLabels may
// have put after it — escapeLabelValue's escapes are Go's — and returns
// what follows.
func splitSeries(s string) (name string, labels []Label, rest string, err error) {
	i := strings.IndexAny(s, "{ ")
	if i < 0 {
		return s, nil, "", nil
	}
	name, rest = s[:i], s[i:]
	for rest[0] != ' ' && rest[0] != '}' { // a '{' or ',' before each label
		lname, after, _ := strings.Cut(rest[1:], "=")
		quoted, err := strconv.QuotedPrefix(after)
		if err != nil || quoted[0] != '"' || len(quoted) == len(after) || !strings.ContainsRune(",}", rune(after[len(quoted)])) {
			return "", nil, "", fmt.Errorf("metrics: malformed label %q in %q", lname, s)
		}
		value, _ := strconv.Unquote(quoted) // QuotedPrefix vouched for it
		labels = append(labels, Label{Name: lname, Value: value})
		rest = after[len(quoted):]
	}
	return name, labels, strings.TrimPrefix(rest, "}"), nil
}
