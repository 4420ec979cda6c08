// Package libc provides the two MiniC standard-library variants the
// paper contrasts (§3, "Library-level changes"):
//
//   - Uclibc: the baseline KLEE setup — ctype classification via a
//     precomputed lookup table (as in the real uClibc KLEE ships with)
//     and string functions written with early-exit loops.
//
//   - Verified: the -OVERIFY library — classification as branch-free
//     arithmetic over range comparisons, single-exit loops, and
//     precondition asserts that turn misuse into checkable crashes.
//     The compiler's simplify pass turns the flag arithmetic into
//     selects: strrchr_'s "hit*i + (1-hit)*last" becomes
//     "hit ? i : last", memcmp_/strncmp_'s "d*(res==0)" and
//     abs_/atoi_'s "2*neg" become selects too. What still computes with
//     arithmetic: toupper/tolower multiply by an & of two flags (not a
//     single i1), abs_/atoi_ multiply the "2*neg" select by v, and
//     strncmp_'s done is an | of flags, so "(1-done)*d" stays a
//     multiplication. Rewriting toupper, tolower, abs_ and atoi_ as
//     ternaries was priced on the benchmark at +9 corpus_sweep and +46
//     served_mix work units a pass, so they stay as they are.
//
// Both variants implement the same contract; the differential tests
// assert they agree on every input.
package libc

import (
	"fmt"
	"strings"
	"sync"

	"overify/internal/lang"
)

// Kind selects a library variant.
type Kind int

// Library variants.
const (
	Uclibc Kind = iota
	Verified
)

// String names the variant.
func (k Kind) String() string {
	if k == Verified {
		return "verified-libc"
	}
	return "uclibc"
}

// Classification bits in the ctype table.
const (
	bitSpace = 1 << iota
	bitAlpha
	bitDigit
	bitUpper
	bitLower
	bitPunct
)

// ctypeTable renders the 256-entry classification table as a MiniC
// global initializer, mirroring uClibc's __ctype_b table.
func ctypeTable() string {
	var vals []string
	for c := 0; c < 256; c++ {
		v := 0
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == 11 || c == 12:
			v |= bitSpace
		}
		if c >= 'a' && c <= 'z' {
			v |= bitAlpha | bitLower
		}
		if c >= 'A' && c <= 'Z' {
			v |= bitAlpha | bitUpper
		}
		if c >= '0' && c <= '9' {
			v |= bitDigit
		}
		if (c >= '!' && c <= '/') || (c >= ':' && c <= '@') ||
			(c >= '[' && c <= '`') || (c >= '{' && c <= '~') {
			v |= bitPunct
		}
		vals = append(vals, fmt.Sprintf("%d", v))
	}
	return "const char CTYPE[256] = {" + strings.Join(vals, ",") + "};\n"
}

// common holds the functions that are identical in both variants:
// the bounded output sink every utility writes to.
const common = `
unsigned char OUT[128];
int OUTN;

void putch(int c) {
	if (OUTN < 128) {
		OUT[OUTN] = (unsigned char)c;
		OUTN = OUTN + 1;
	}
}

void putstr(unsigned char *s) {
	int i = 0;
	while (s[i] != 0) {
		putch((int)s[i]);
		i = i + 1;
	}
}
`

// uclibcSrc is the baseline library: table-driven ctype, early-exit
// string loops (the shape real libc code has).
var uclibcSrc = ctypeTable() + common + `
int isspace(int c) { return (int)CTYPE[c & 255] & 1; }
int isalpha(int c) { return ((int)CTYPE[c & 255] >> 1) & 1; }
int isdigit(int c) { return ((int)CTYPE[c & 255] >> 2) & 1; }
int isupper(int c) { return ((int)CTYPE[c & 255] >> 3) & 1; }
int islower(int c) { return ((int)CTYPE[c & 255] >> 4) & 1; }
int ispunct(int c) { return ((int)CTYPE[c & 255] >> 5) & 1; }
int isalnum(int c) { return isalpha(c) || isdigit(c); }

int toupper(int c) {
	if (islower(c)) {
		return c - 32;
	}
	return c;
}

int tolower(int c) {
	if (isupper(c)) {
		return c + 32;
	}
	return c;
}

int strlen_(unsigned char *s) {
	int n = 0;
	while (s[n] != 0) {
		n = n + 1;
	}
	return n;
}

int strcmp_(unsigned char *a, unsigned char *b) {
	int i = 0;
	while (a[i] != 0) {
		if (a[i] != b[i]) {
			return (int)a[i] - (int)b[i];
		}
		i = i + 1;
	}
	return (int)a[i] - (int)b[i];
}

int strncmp_(unsigned char *a, unsigned char *b, int n) {
	int i = 0;
	while (i < n) {
		if (a[i] != b[i]) {
			return (int)a[i] - (int)b[i];
		}
		if (a[i] == 0) {
			return 0;
		}
		i = i + 1;
	}
	return 0;
}

int strchr_(unsigned char *s, int c) {
	int i = 0;
	while (s[i] != 0) {
		if ((int)s[i] == c) {
			return i;
		}
		i = i + 1;
	}
	if (c == 0) {
		return i;
	}
	return -1;
}

int strrchr_(unsigned char *s, int c) {
	int i = 0;
	int last = -1;
	while (s[i] != 0) {
		if ((int)s[i] == c) {
			last = i;
		}
		i = i + 1;
	}
	return last;
}

void memset_(unsigned char *p, int c, int n) {
	int i = 0;
	while (i < n) {
		p[i] = (unsigned char)c;
		i = i + 1;
	}
}

void memcpy_(unsigned char *dst, unsigned char *src, int n) {
	int i = 0;
	while (i < n) {
		dst[i] = src[i];
		i = i + 1;
	}
}

int memcmp_(unsigned char *a, unsigned char *b, int n) {
	int i = 0;
	while (i < n) {
		if (a[i] != b[i]) {
			return (int)a[i] - (int)b[i];
		}
		i = i + 1;
	}
	return 0;
}

int atoi_(unsigned char *s) {
	int i = 0;
	int neg = 0;
	int v = 0;
	while (isspace((int)s[i])) {
		i = i + 1;
	}
	if (s[i] == '-') {
		neg = 1;
		i = i + 1;
	} else if (s[i] == '+') {
		i = i + 1;
	}
	while (isdigit((int)s[i])) {
		v = v * 10 + ((int)s[i] - '0');
		i = i + 1;
	}
	if (neg) {
		return -v;
	}
	return v;
}

int abs_(int v) {
	if (v < 0) {
		return -v;
	}
	return v;
}
`

// verifiedSrc is the -OVERIFY library: classification is pure arithmetic,
// loops are single-exit, and preconditions are asserted so the verifier
// turns misuse into crashes (§3). Arithmetic on a 0/1 flag reaches the
// solver as a select because simplify rewrites it (see the package
// comment for what it does not rewrite and why).
var verifiedSrc = common + `
int isspace(int c) {
	int k = c & 255;
	return (k == 32) | (k == 9) | (k == 10) | (k == 13) | (k == 11) | (k == 12);
}
int isupper(int c) {
	int k = c & 255;
	return (k >= 65) & (k <= 90);
}
int islower(int c) {
	int k = c & 255;
	return (k >= 97) & (k <= 122);
}
int isalpha(int c) { return isupper(c) | islower(c); }
int isdigit(int c) {
	int k = c & 255;
	return (k >= 48) & (k <= 57);
}
int isalnum(int c) { return isalpha(c) | isdigit(c); }
int ispunct(int c) {
	int k = c & 255;
	return ((k >= 33) & (k <= 47)) | ((k >= 58) & (k <= 64))
	     | ((k >= 91) & (k <= 96)) | ((k >= 123) & (k <= 126));
}

int toupper(int c) { return c - islower(c) * 32; }
int tolower(int c) { return c + isupper(c) * 32; }

int strlen_(unsigned char *s) {
	int n = 0;
	while (s[n] != 0) {
		n = n + 1;
	}
	return n;
}

int strcmp_(unsigned char *a, unsigned char *b) {
	int i = 0;
	while ((a[i] != 0) & (a[i] == b[i])) {
		i = i + 1;
	}
	return (int)a[i] - (int)b[i];
}

int strncmp_(unsigned char *a, unsigned char *b, int n) {
	assert(n >= 0);
	// Branch-free full scan: the result is the first difference before
	// a NUL; the done flag freezes the accumulator afterwards. Every access
	// stays strictly below n (a plain & would evaluate a[n]).
	int i = 0;
	int res = 0;
	int done = 0;
	while (i < n) {
		int av = (int)a[i];
		int bv = (int)b[i];
		int d = av - bv;
		res = res + (1 - done) * d * (res == 0);
		done = done | (av == 0) | (d != 0);
		i = i + 1;
	}
	return res;
}

int strchr_(unsigned char *s, int c) {
	int i = 0;
	while ((s[i] != 0) & ((int)s[i] != c)) {
		i = i + 1;
	}
	if ((int)s[i] == c) {
		return i;
	}
	return -1;
}

int strrchr_(unsigned char *s, int c) {
	int i = 0;
	int last = -1;
	while (s[i] != 0) {
		int hit = (int)s[i] == c;
		last = hit * i + (1 - hit) * last;
		i = i + 1;
	}
	return last;
}

void memset_(unsigned char *p, int c, int n) {
	assert(n >= 0);
	int i = 0;
	while (i < n) {
		p[i] = (unsigned char)c;
		i = i + 1;
	}
}

void memcpy_(unsigned char *dst, unsigned char *src, int n) {
	assert(n >= 0);
	int i = 0;
	while (i < n) {
		dst[i] = src[i];
		i = i + 1;
	}
}

int memcmp_(unsigned char *a, unsigned char *b, int n) {
	assert(n >= 0);
	// Branch-free full scan; see strncmp_ for the accumulator scheme.
	int i = 0;
	int res = 0;
	while (i < n) {
		int d = (int)a[i] - (int)b[i];
		res = res + d * (res == 0);
		i = i + 1;
	}
	return res;
}

int atoi_(unsigned char *s) {
	int i = 0;
	int neg = 0;
	int v = 0;
	while (isspace((int)s[i])) {
		i = i + 1;
	}
	int sign = (s[i] == '-') | (s[i] == '+');
	neg = s[i] == '-';
	i = i + sign;
	while (isdigit((int)s[i])) {
		v = v * 10 + ((int)s[i] - '0');
		i = i + 1;
	}
	return v - 2 * neg * v;
}

int abs_(int v) {
	int neg = v < 0;
	return v - 2 * neg * v;
}
`

// ReadOut returns the bytes a run wrote to the output sink, given the
// machine's global lookup (interp.Machine.GlobalData or
// vm.Machine.GlobalData). It is nil when the module never linked the
// sink.
func ReadOut(globalData func(name string) ([]uint64, bool)) []byte {
	outn, ok1 := globalData("OUTN")
	out, ok2 := globalData("OUT")
	if !ok1 || !ok2 || len(outn) == 0 {
		return nil
	}
	n := min(max(int(int32(outn[0])), 0), len(out))
	res := make([]byte, n)
	for i := range res {
		res[i] = byte(out[i])
	}
	return res
}

// Source returns the MiniC source of a library variant.
func Source(kind Kind) string {
	if kind == Verified {
		return verifiedSrc
	}
	return uclibcSrc
}

// Parse returns a library variant as an archive: the AST is parsed once
// per process and shared, read-only, by every caller (the lowerer does
// not write to it), and it is marked lang.File.Archive, so
// frontend.LowerFiles links only the members a program references and a
// program's own definition of a member's name wins. To lower a whole
// variant, as the contract tests do, use lang.Parse(Source(kind)).
func Parse(kind Kind) (*lang.File, error) {
	if kind == Verified {
		return parseVerified()
	}
	return parseUclibc()
}

var (
	parseUclibc   = sync.OnceValues(func() (*lang.File, error) { return parseArchive(uclibcSrc) })
	parseVerified = sync.OnceValues(func() (*lang.File, error) { return parseArchive(verifiedSrc) })
)

func parseArchive(src string) (*lang.File, error) {
	f, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	f.Archive = true
	return f, nil
}

// FunctionNames lists the public functions both variants provide, for
// contract tests.
func FunctionNames() []string {
	return []string{
		"isspace", "isalpha", "isdigit", "isupper", "islower", "ispunct", "isalnum",
		"toupper", "tolower",
		"strlen_", "strcmp_", "strncmp_", "strchr_", "strrchr_",
		"memset_", "memcpy_", "memcmp_",
		"atoi_", "abs_", "putch", "putstr",
	}
}
