package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// statusEntry matches one "<code> <Name>" entry of DESIGN.md's status
// lines.
var statusEntry = regexp.MustCompile(`\b(\d+) ([A-Z][A-Za-z]*)`)

// TestDesignStatusTable pins the wire table in DESIGN.md §6 to the
// Status constants: its status lines must name every code exactly as
// the constant does, minus the Status prefix, and name nothing else.
func TestDesignStatusTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "batch.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Status" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a literal code", name.Name)
				}
				code, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				want[code] = strings.TrimPrefix(name.Name, "Status")
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no Status constants found in batch.go")
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	lines := strings.Split(string(doc), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "status  ") {
			continue
		}
		table = append(table, line)
		for _, cont := range lines[i+1:] {
			if !strings.HasPrefix(cont, "        ") {
				break
			}
			table = append(table, cont)
		}
	}
	if len(table) == 0 {
		t.Fatal("DESIGN.md has no status line")
	}
	got := map[int]string{}
	for _, m := range statusEntry.FindAllStringSubmatch(strings.Join(table, "\n"), -1) {
		code, _ := strconv.Atoi(m[1])
		if prev, dup := got[code]; dup {
			t.Errorf("DESIGN.md names status %d twice: %s and %s", code, prev, m[2])
		}
		got[code] = m[2]
	}
	for code, name := range want {
		if got[code] != name {
			t.Errorf("status %d is %s, DESIGN.md says %q", code, name, got[code])
		}
	}
	for code, name := range got {
		if _, ok := want[code]; !ok {
			t.Errorf("DESIGN.md names status %d %s, which is not a Status constant", code, name)
		}
	}
}
