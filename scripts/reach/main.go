// Command reach fails when an exported function or method under
// internal/ is in none of the given binaries and not named in the
// allowlist, scripts/reach/allow.txt. Run it from the repository root;
// scripts/reach.sh builds the repository's binaries with inlining off
// and runs it over them:
//
//	go run ./scripts/reach BIN...
//
// A declaration counts as reached when any binary's text symbols name
// it, a closure inside it, a method value of it, or a generic
// instantiation of it (the linker prints those under shape names, for
// example "(*Ring[go.shape.*uint8]).Push").
//
// The allowlist has one "symbol<TAB>reason" entry a line; blank lines
// and lines starting with # are ignored. A symbol is written as the
// report prints it, without the "repro/internal/" prefix: "pkg.Func"
// names one function, "pkg.Type.Method" one method, and "pkg.Type"
// every unreached exported method of that type. The scan lists each
// unreached declaration with its file:line, body lines and whether the
// allowlist covers it, then the totals. It exits 1 when an unreached
// declaration is not listed or an entry is stale (it covers no
// unreached declaration: the symbol is now linked, or gone), and 2 when
// the scan itself fails.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// module is the import path prefix of the packages the scan covers.
const module = "repro/internal/"

// allowPath is the allowlist, relative to the repository root.
const allowPath = "scripts/reach/allow.txt"

func main() {
	bins := os.Args[1:]
	if len(bins) == 0 {
		fmt.Fprintln(os.Stderr, "usage: reach BIN...")
		os.Exit(2)
	}
	f, err := os.Open(allowPath)
	if err != nil {
		fail(err)
	}
	allow, err := parseAllow(f)
	f.Close()
	if err != nil {
		fail(fmt.Errorf("%s: %w", allowPath, err))
	}
	reached := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			fail(fmt.Errorf("go tool nm %s: %w", bin, err))
		}
		for _, sym := range textSymbols(out) {
			for _, k := range keys(sym) {
				reached[k] = true
			}
		}
	}
	decls, err := exported("internal")
	if err != nil {
		fail(err)
	}
	r := check(decls, reached, allow)
	lines := 0
	for _, u := range r.unreached {
		lines += u.body
		status := "unlisted"
		if u.allowed {
			status = "allowed"
		}
		fmt.Printf("%-48s %-44s %4d  %s\n", u.pos, strings.TrimPrefix(u.key, module), u.body, status)
	}
	for _, e := range r.stale {
		fmt.Printf("%-48s %-44s stale: covers no unreached declaration\n", fmt.Sprintf("%s:%d", allowPath, e.line), e.symbol)
	}
	fmt.Printf("reach: %d of %d exported functions and methods under internal/ are in none of %d binaries (%d body lines); %d allowed by %d entries, %d unlisted, %d stale entries\n",
		len(r.unreached), len(decls), len(bins), lines, len(r.unreached)-r.unlisted, len(allow), r.unlisted, len(r.stale))
	if r.unlisted > 0 || len(r.stale) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reach:", err)
	os.Exit(2)
}

// entry is one allowlist line.
type entry struct {
	symbol string // "pkg.Func", "pkg.Type.Method" or "pkg.Type"
	reason string
	line   int
}

// parseAllow reads allowlist entries, skipping blank and # lines. Every
// entry needs a symbol, a tab and a reason; a symbol may appear once.
func parseAllow(r io.Reader) ([]entry, error) {
	var out []entry
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, ok := strings.Cut(line, "\t")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		if !ok || sym == "" || reason == "" || strings.ContainsAny(sym, " \t") {
			return nil, fmt.Errorf("line %d: want symbol<TAB>reason, got %q", n, line)
		}
		if seen[sym] {
			return nil, fmt.Errorf("line %d: %s listed twice", n, sym)
		}
		seen[sym] = true
		out = append(out, entry{symbol: sym, reason: reason, line: n})
	}
	return out, sc.Err()
}

// unreached is a declaration no binary links and whether an allowlist
// entry covers it.
type unreached struct {
	decl
	allowed bool
}

// result is the outcome of check.
type result struct {
	unreached []unreached
	unlisted  int
	stale     []entry
}

// check matches the unreached declarations against the allowlist: an
// entry covers the declaration it names and, when it names a type, every
// method of that type. An entry that covers nothing is stale.
func check(decls []decl, reached map[string]bool, allow []entry) result {
	used := make([]bool, len(allow))
	var r result
	for _, d := range decls {
		if reached[d.key] {
			continue
		}
		u := unreached{decl: d}
		sym := strings.TrimPrefix(d.key, module)
		for i, e := range allow {
			if sym == e.symbol || strings.HasPrefix(sym, e.symbol+".") {
				u.allowed, used[i] = true, true
			}
		}
		if !u.allowed {
			r.unlisted++
		}
		r.unreached = append(r.unreached, u)
	}
	for i, e := range allow {
		if !used[i] {
			r.stale = append(r.stale, e)
		}
	}
	return r
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
