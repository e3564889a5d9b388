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
// lines; keepsConn one annotated as a TError that keeps its connection.
var (
	statusEntry = regexp.MustCompile(`\b(\d+) ([A-Z][A-Za-z]*)`)
	keepsConn   = regexp.MustCompile(`\b(\d+) [A-Z][A-Za-z]* \(TError only, keeps the conn\)`)
)

// TestDesignStatusTable pins the wire table in DESIGN.md §6 to the
// Status constants: its status lines must name every code exactly as
// the constant does, minus the Status prefix, and name nothing else;
// and exactly the statuses whose TError does not end the connection
// (Status.EndsConn) must say "keeps the conn".
func TestDesignStatusTable(t *testing.T) {
	want := fileConsts(t, "batch.go", "Status", "Status")
	var table []string
	lines := strings.Split(designDoc(t), "\n")
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
	sameNames(t, "status", "Status", want, got)
	kept := map[int]bool{}
	for _, m := range keepsConn.FindAllStringSubmatch(strings.Join(table, "\n"), -1) {
		code, _ := strconv.Atoi(m[1])
		kept[code] = true
	}
	for code, name := range want {
		if ends := Status(code).EndsConn(); kept[code] == ends {
			t.Errorf("status %d %s: EndsConn is %v, and DESIGN.md says keeps the conn: %v", code, name, ends, kept[code])
		}
	}
}

// sameNames reports every code whose DESIGN.md name (got) differs from
// its constant's (want), and every documented code with no constant.
func sameNames(t *testing.T, what, typeName string, want, got map[int]string) {
	t.Helper()
	for code, name := range want {
		if got[code] != name {
			t.Errorf("%s %d is %s, DESIGN.md says %q", what, code, name, got[code])
		}
	}
	for code, name := range got {
		if _, ok := want[code]; !ok {
			t.Errorf("DESIGN.md names %s %d %s, and no %s constant has that code", what, code, name, typeName)
		}
	}
}

// fileConsts returns the named file's constants of the named type by
// code, each named without prefix.
func fileConsts(t *testing.T, file, typeName, prefix string) map[int]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[int]string{}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != typeName {
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
				consts[code] = strings.TrimPrefix(name.Name, prefix)
			}
		}
	}
	if len(consts) == 0 {
		t.Fatalf("no %s constants found in %s", typeName, file)
	}
	return consts
}

// designDoc returns DESIGN.md.
func designDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// frameEntry matches one "<Name>=<code>" entry of the frame header's
// type row.
var frameEntry = regexp.MustCompile(`\b([A-Z][A-Za-z]*)=(\d+)`)

// TestDesignFrameTable pins the type row of the frame header table in
// DESIGN.md §6 to the Type constants: it must name every code exactly
// as the constant does, minus the T prefix, and name nothing else.
func TestDesignFrameTable(t *testing.T) {
	want := fileConsts(t, "frame.go", "Type", "T")
	var row []string
	lines := strings.Split(designDoc(t), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "5       1     type (") {
			continue
		}
		row = append(row, line)
		for _, cont := range lines[i+1:] {
			if !strings.HasPrefix(cont, "              ") {
				break
			}
			row = append(row, cont)
		}
		break
	}
	if len(row) == 0 {
		t.Fatal("DESIGN.md has no frame type row")
	}
	got := map[int]string{}
	for _, m := range frameEntry.FindAllStringSubmatch(strings.Join(row, "\n"), -1) {
		code, _ := strconv.Atoi(m[2])
		if prev, dup := got[code]; dup {
			t.Errorf("DESIGN.md names frame type %d twice: %s and %s", code, prev, m[1])
		}
		got[code] = m[1]
	}
	sameNames(t, "frame type", "Type", want, got)
}

// opRow matches one row of DESIGN.md's op-kind table: code, name and
// encoded size.
var opRow = regexp.MustCompile(`^(\d+) +([A-Za-z]+) +(\d+) `)

// TestDesignOpTable pins the op-kind table in DESIGN.md §6 to the
// OpKind constants and the codec: its rows must name every code exactly
// as the constant does, minus the Op prefix, name nothing else, and
// give each kind's size as the bytes AppendOps writes for one op of
// that kind.
func TestDesignOpTable(t *testing.T) {
	want := fileConsts(t, "batch.go", "OpKind", "Op")
	lines := strings.Split(designDoc(t), "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "kind  name  ") && strings.Contains(line, " bytes ") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatal("DESIGN.md has no op-kind table")
	}
	got := map[int]string{}
	for _, line := range lines[start:] {
		m := opRow.FindStringSubmatch(line)
		if m == nil {
			break
		}
		code, _ := strconv.Atoi(m[1])
		size, _ := strconv.Atoi(m[3])
		if prev, dup := got[code]; dup {
			t.Errorf("DESIGN.md names op kind %d twice: %s and %s", code, prev, m[2])
		}
		got[code] = m[2]
		if _, ok := want[code]; !ok {
			continue
		}
		if n := len(AppendOps(nil, []Op{{Kind: OpKind(code)}})) - 4; size != n {
			t.Errorf("DESIGN.md gives %s %d bytes, AppendOps writes %d", m[2], size, n)
		}
	}
	sameNames(t, "op kind", "OpKind", want, got)
}
