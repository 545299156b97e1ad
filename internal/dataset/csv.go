package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV loads a table from CSV. The first row must be a header of
// "name:kind" declarations (kind ∈ int, float, string, bool; a bare name
// defaults to string), e.g.:
//
//	Name:string,Age:int,OptIn:bool
//	alice,34,true
//
// Values that fail to parse under the declared kind are an error, keeping
// silent data corruption out of privacy-sensitive pipelines. Int, float
// and bool cells may be padded with space. String cells are kept as
// encoding/csv returns them: a quoted cell verbatim, an unquoted one
// without its leading space.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	fields := make([]Field, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		name, kindName, found := strings.Cut(strings.TrimSpace(h), ":")
		if name == "" {
			return nil, fmt.Errorf("dataset: empty attribute name in column %d", i+1)
		}
		if seen[name] {
			return nil, fmt.Errorf("dataset: duplicate attribute %q in column %d", name, i+1)
		}
		seen[name] = true
		kind := KindString
		if found {
			switch kindName {
			case "int":
				kind = KindInt
			case "float":
				kind = KindFloat
			case "string":
				kind = KindString
			case "bool":
				kind = KindBool
			default:
				return nil, fmt.Errorf("dataset: unknown kind %q for attribute %q", kindName, name)
			}
		}
		fields[i] = Field{Name: name, Kind: kind}
	}
	schema := NewSchema(fields...)
	table := NewTable(schema)

	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		values := make([]Value, len(fields))
		for i, cell := range row {
			v, err := parseValue(cell, fields[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, attribute %q: %w", line, fields[i].Name, err)
			}
			values[i] = v
		}
		table.Append(NewRecord(schema, values...))
	}
	return table, nil
}

// parseValue parses one cell under its declared kind. String cells are
// taken verbatim, so padded strings survive a WriteCSV/ReadCSV round
// trip; the others are trimmed of surrounding space first.
func parseValue(cell string, kind Kind) (Value, error) {
	if kind == KindString {
		return Str(cell), nil
	}
	cell = strings.TrimSpace(cell)
	switch kind {
	case KindInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as int: %w", cell, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as float: %w", cell, err)
		}
		return Float(f), nil
	default: // KindBool
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as bool: %w", cell, err)
		}
		return Bool(b), nil
	}
}

// WriteCSV writes the table in the format ReadCSV accepts, including the
// typed header; round-tripping a table through WriteCSV/ReadCSV
// preserves schema and values, padded and empty strings included, since
// ReadCSV reads string cells verbatim. The one exception is encoding/csv's
// own: a "\r\n" inside a string cell reads back as "\n".
//
// The bytes are those of an encoding/csv Writer fed each record's
// At(i).AsString() cells, except that a single-column record whose cell
// renders empty is written as `""` rather than as a blank line, which
// CSV readers skip.
//
// The encoder is columnar: ints, floats and bools append straight into
// a byte buffer (strconv.Append*, which never yield a cell that needs
// quoting), each dictionary string is quoted by encoding/csv's rules
// once per dictionary entry, and an 8-bit int column renders each of
// its 256 offsets at most once.
func WriteCSV(w io.Writer, t *Table) error {
	s := t.Schema()
	q := newCSVQuoter()
	var buf []byte
	for i, name := range s.Names() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, q.field(name+":"+s.kinds[i].String())...)
	}
	buf = append(buf, '\n')
	cols := make([]csvColumn, s.Len())
	for i, c := range t.Base().cols {
		cols[i].column = c
		switch {
		case c.kind == KindString:
			cols[i].fields = make([]string, len(c.dict.vals))
		case c.kind == KindInt && c.ints.bits == 8:
			cols[i].fields = make([]string, 256)
		}
	}
	for i, n := 0, t.Len(); i < n; i++ {
		r := t.physRow(i)
		start := len(buf)
		for j := range cols {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = cols[j].appendCell(buf, r, q)
		}
		if len(cols) == 1 && len(buf) == start {
			buf = append(buf, `""`...)
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("dataset: writing CSV: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: writing CSV: %w", err)
	}
	return nil
}

// csvFlushBytes is how much encoded output WriteCSV buffers before
// handing it to the writer.
const csvFlushBytes = 64 << 10

// csvQuoter renders a string as a CSV field by encoding/csv's own rules:
// it writes the string as a one-field record and keeps what the Writer
// emitted before the record's terminating newline.
type csvQuoter struct {
	buf bytes.Buffer
	w   *csv.Writer
}

func newCSVQuoter() *csvQuoter {
	q := &csvQuoter{}
	q.w = csv.NewWriter(&q.buf)
	return q
}

func (q *csvQuoter) field(s string) string {
	q.buf.Reset()
	// A bytes.Buffer never fails a write, so neither can the Writer.
	_ = q.w.Write([]string{s})
	q.w.Flush()
	return string(q.buf.Bytes()[:q.buf.Len()-1])
}

// csvColumn encodes one column's cells for WriteCSV. fields caches the
// rendered field of each dictionary entry of a string column, or of each
// offset of an 8-bit int column, filled on first use.
type csvColumn struct {
	*column
	fields []string
}

// appendCell appends the CSV field of physical row r.
func (c *csvColumn) appendCell(b []byte, r int, q *csvQuoter) []byte {
	switch c.kind {
	case KindInt:
		if c.fields == nil {
			return strconv.AppendInt(b, c.ints.at(r), 10)
		}
		o := c.ints.u8[r]
		f := c.fields[o]
		if f == "" { // no int renders empty
			f = strconv.FormatInt(c.ints.base+int64(o), 10)
			c.fields[o] = f
		}
		return append(b, f...)
	case KindFloat:
		return strconv.AppendFloat(b, c.floats[r], 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(b, c.bools[r])
	}
	code := c.codes[r]
	f := c.fields[code]
	// Only the empty string renders empty, so an empty cache slot for
	// any other entry means "not rendered yet".
	if f == "" && c.dict.vals[code] != "" {
		f = q.field(c.dict.vals[code])
		c.fields[code] = f
	}
	return append(b, f...)
}
