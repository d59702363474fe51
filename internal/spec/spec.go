// Package spec reads the one grammar every plan flag shares: a
// comma-separated list of KIND:ARG:… entries, as in "crash:1:20,hang:0:10:50ms".
// faults.Parse, faults.ParseLinks, faults.ParseProcPlan and elastic.Parse
// each switch on an entry's Kind, check its arity against a usage string,
// and read typed arguments; Join renders a plan back in the same syntax.
package spec

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Entry is one KIND:ARG:… entry. Its readers keep the first error, so a
// parser reads every argument and Parse checks the entry once.
type Entry struct {
	// Kind is the entry's first field.
	Kind   string
	pkg    string
	text   string
	fields []string
	err    error
}

// Parse reads s into plan, calling add once per entry in order. A blank s
// is no plan: Parse returns nil without calling add. Otherwise the first
// error add returns or an entry records is returned, with a nil plan. pkg
// prefixes every error ("faults", "elastic").
func Parse[P any](pkg, s string, plan *P, add func(*P, *Entry) error) (*P, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	for _, text := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(text), ":")
		e := &Entry{Kind: fields[0], pkg: pkg, text: text, fields: fields}
		if err := add(plan, e); err != nil {
			return nil, err
		}
		if e.err != nil {
			return nil, e.err
		}
	}
	return plan, nil
}

// Want checks the entry's arity against usage, e.g. "hang:WORKER:AFTER:DURATION".
// A parser calls it before reading any field.
func (e *Entry) Want(usage string) {
	if e.err == nil && len(e.fields) != strings.Count(usage, ":")+1 {
		e.err = fmt.Errorf("%s: %s wants %s, got %q", e.pkg, e.Kind, usage, e.text)
	}
}

// Int reads field i (the kind is field 0) as an int; what names the field
// in the error.
func (e *Entry) Int(i int, what string) (v int) {
	e.read(i, what, func(s string) (err error) { v, err = strconv.Atoi(s); return err })
	return v
}

// Int64 reads field i as an int64.
func (e *Entry) Int64(i int, what string) (v int64) {
	e.read(i, what, func(s string) (err error) { v, err = strconv.ParseInt(s, 10, 64); return err })
	return v
}

// Float reads field i as a float64.
func (e *Entry) Float(i int, what string) (v float64) {
	e.read(i, what, func(s string) (err error) { v, err = strconv.ParseFloat(s, 64); return err })
	return v
}

// Duration reads field i as a time.Duration.
func (e *Entry) Duration(i int, what string) (v time.Duration) {
	e.read(i, what, func(s string) (err error) { v, err = time.ParseDuration(s); return err })
	return v
}

func (e *Entry) read(i int, what string, parse func(string) error) {
	if e.err != nil {
		return
	}
	if err := parse(e.fields[i]); err != nil {
		e.err = fmt.Errorf("%s: bad %s in %q: %w", e.pkg, what, e.text, err)
	}
}

// Unknown reports the entry's kind as none of the grammar's; what names the
// grammar's kinds ("fault kind", "membership event").
func (e *Entry) Unknown(what string) error {
	return fmt.Errorf("%s: unknown %s %q in %q", e.pkg, what, e.Kind, e.text)
}

// Join renders entries comma-separated, each in its own String syntax.
func Join[T fmt.Stringer](entries []T) string {
	parts := make([]string, len(entries))
	for i, x := range entries {
		parts[i] = x.String()
	}
	return strings.Join(parts, ",")
}
