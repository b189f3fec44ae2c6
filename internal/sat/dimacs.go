package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS writes the problem clauses in DIMACS CNF format. Learnt
// clauses are not emitted (they are implied).
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c goldmine CDCL solver export\n")
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses)+len(s.units()))
	for _, u := range s.units() {
		fmt.Fprintf(bw, "%d 0\n", u)
	}
	for _, c := range s.clauses {
		for _, il := range s.ca.lits(c) {
			fmt.Fprintf(bw, "%d ", fromInternal(il))
		}
		fmt.Fprintf(bw, "0\n")
	}
	return bw.Flush()
}

// units returns the level-0 forced literals (unit clauses absorbed into the
// assignment during AddClause).
func (s *Solver) units() []Lit {
	var out []Lit
	limit := len(s.trail)
	if len(s.trailLim) > 0 {
		limit = s.trailLim[0]
	}
	for _, il := range s.trail[:limit] {
		if s.vars[il.vix()].reason == crefUndef {
			out = append(out, fromInternal(il))
		}
	}
	return out
}

// ParseDIMACS reads a DIMACS CNF file into a fresh solver. Comment lines and
// the problem line are tolerated anywhere before the clauses.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "%") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("bad problem line %q", line)
			}
			if _, err := strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("bad variable count in %q", line)
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("bad clause count in %q", line)
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("bad literal %q: %w", tok, err)
			}
			if v == 0 {
				if _, err := s.AddClause(cur...); err != nil {
					return nil, err
				}
				cur = cur[:0]
				continue
			}
			cur = append(cur, Lit(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		if _, err := s.AddClause(cur...); err != nil {
			return nil, err
		}
	}
	return s, nil
}
