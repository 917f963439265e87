// Command reach lists the exported functions and methods under
// internal/ that no given binary contains. scripts/reach.sh builds the
// repository's binaries with inlining off and runs it over them:
//
//	go run ./scripts/reach BIN...
//
// A declaration counts as reached when any binary's text symbols name
// it, a closure inside it, a method value of it, or a generic
// instantiation of it (the linker prints those under shape names, for
// example "(*Ring[go.shape.*uint8]).Push"). The report lists each
// unreached declaration with its file:line and body lines, then the
// totals. It is a report, not a gate: the exit status is 0 whenever the
// scan itself succeeds.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// module is the import path prefix of the packages the scan covers.
const module = "repro/internal/"

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: reach BIN...")
		os.Exit(2)
	}
	reached := map[string]bool{}
	for _, bin := range os.Args[1:] {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reach: go tool nm %s: %v\n", bin, err)
			os.Exit(1)
		}
		for _, sym := range textSymbols(out) {
			for _, k := range keys(sym) {
				reached[k] = true
			}
		}
	}
	decls, err := exported("internal")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
	n, lines := 0, 0
	for _, d := range decls {
		if reached[d.key] {
			continue
		}
		n++
		lines += d.body
		fmt.Printf("%-48s %-44s %4d\n", d.pos, strings.TrimPrefix(d.key, module), d.body)
	}
	fmt.Printf("reach: %d of %d exported functions and methods under internal/ are in none of %d binaries (%d body lines)\n",
		n, len(decls), len(os.Args)-1, lines)
}

// textSymbols returns the text-segment symbols under module from go
// tool nm output ("ADDR T NAME" lines; NAME may contain spaces).
func textSymbols(nm []byte) []string {
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], module) {
			syms = append(syms, f[2])
		}
	}
	return syms
}

// keys normalizes a text symbol to the declaration keys it reaches:
// "pkg.Name" for a function and, when the symbol has a second element,
// "pkg.Recv.Name" for a method. Type arguments, the pointer-receiver
// parentheses and the "-fm" method-value suffix are dropped, so
// "pkg.(*Ring[go.shape.*uint8]).Push" yields "pkg.Ring" and
// "pkg.Ring.Push", and "pkg.F.func1" yields "pkg.F" (and the harmless
// "pkg.F.func1", which names no declaration).
func keys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return nil
	}
	pkg, rest := s[:slash+1+dot], s[slash+2+dot:]
	parts := strings.Split(rest, ".")
	for i := range parts {
		parts[i] = strings.TrimSuffix(parts[i], "-fm")
	}
	out := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		out = append(out, pkg+"."+parts[0]+"."+parts[1])
	}
	return out
}

// decl is one exported function or method declaration.
type decl struct {
	key  string // import path + "." + [receiver type + "."] + name
	pos  string // file:line
	body int    // lines between the braces; 1 for a one-line body
}

// exported parses the non-test Go files under root that the current
// build context selects and returns their exported function and method
// declarations in file:line order (WalkDir visits files lexically).
func exported(root string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := module + strings.TrimPrefix(filepath.ToSlash(dir), root+"/")
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			qual := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				qual = recvName(fn.Recv.List[0].Type) + "." + qual
			}
			lb, rb := fset.Position(fn.Body.Lbrace), fset.Position(fn.Body.Rbrace)
			body := rb.Line - lb.Line - 1
			if body < 1 {
				body = 1
			}
			decls = append(decls, decl{
				key:  pkgPath + "." + qual,
				pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(path), fset.Position(fn.Pos()).Line),
				body: body,
			})
		}
		return nil
	})
	return decls, err
}

// recvName returns the receiver's type name without pointer or type
// parameters: "*Ring[T]" → "Ring".
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
