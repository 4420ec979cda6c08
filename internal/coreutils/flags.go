package coreutils

// Flag-mode utilities: the first input byte selects a mode that the
// main loop tests on every iteration, with side-effecting arms (output
// calls). This is the control-flow shape real coreutils have (think
// `if (verbose)` inside a processing loop) and the one where loop
// unswitching — rather than if-conversion — is the profitable transform:
// the arms contain calls/stores, so they cannot be speculated, but the
// condition is loop-invariant, so the loop can be cloned per mode.
//
// Fixed-round utilities (hash16, mix32, rot13rounds) carry inner loops
// with constant trip counts above -O3's unroll budget of 8.
func init() {
	register(Program{
		Name: "grep-v", Desc: "print bytes (not) equal to a pattern byte, flag-invertible", Sample: "vxaxbxc",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 2) {
		return 2;
	}
	int invert = input[0] == 'v';
	int pat = (int)input[1];
	int matched = 0;
	int i = 2;
	while (input[i] != 0) {
		int c = (int)input[i];
		if (invert) {
			if (c != pat) {
				putch(c);
				matched = matched + 1;
			}
		} else {
			if (c == pat) {
				putch(c);
				matched = matched + 1;
			}
		}
		i = i + 1;
	}
	if (matched > 0) {
		return 0;
	}
	return 1;
}
`})

	register(Program{
		Name: "cat-n", Desc: "cat with optional line numbering flag", Sample: "nab\ncd",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int number = input[0] == 'n';
	int line = 1;
	int at_start = 1;
	int i = 1;
	while (input[i] != 0) {
		if (number) {
			if (at_start) {
				putch('0' + line % 10);
				putch(' ');
				at_start = 0;
			}
		}
		putch((int)input[i]);
		if (input[i] == '\n') {
			line = line + 1;
			at_start = 1;
		}
		i = i + 1;
	}
	return line;
}
`})

	register(Program{
		Name: "wc-m", Desc: "count words or bytes depending on mode flag", Sample: "wtwo words",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int words_mode = input[0] == 'w';
	int count = 0;
	int in_word = 0;
	int i = 1;
	while (input[i] != 0) {
		if (words_mode) {
			if (isspace((int)input[i])) {
				in_word = 0;
			} else {
				if (!in_word) {
					count = count + 1;
					in_word = 1;
				}
			}
		} else {
			count = count + 1;
		}
		i = i + 1;
	}
	return count;
}
`})

	register(Program{
		Name: "tr-u", Desc: "case-map with direction flag tested per byte", Sample: "uMiXeD",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int up = input[0] == 'u';
	int i = 1;
	while (input[i] != 0) {
		int c = (int)input[i];
		if (up) {
			putch(toupper(c));
		} else {
			putch(tolower(c));
		}
		i = i + 1;
	}
	return i - 1;
}
`})

	register(Program{
		Name: "uniq-c", Desc: "squeeze repeats, optionally with counts", Sample: "caabbb",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int counting = input[0] == 'c';
	int prev = -1;
	int run = 0;
	int i = 1;
	while (input[i] != 0) {
		int c = (int)input[i];
		if (c == prev) {
			run = run + 1;
		} else {
			if (prev >= 0) {
				if (counting) {
					putch('0' + run % 10);
					putch(' ');
				}
				putch(prev);
			}
			prev = c;
			run = 1;
		}
		i = i + 1;
	}
	if (prev >= 0) {
		if (counting) {
			putch('0' + run % 10);
			putch(' ');
		}
		putch(prev);
	}
	return 0;
}
`})

	register(Program{
		Name: "od-x", Desc: "dump bytes in octal or decimal by flag", Sample: "xAB",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int hexish = input[0] == 'x';
	int i = 1;
	while (input[i] != 0) {
		int c = (int)input[i];
		if (hexish) {
			int hi = (c >> 4) & 15;
			int lo = c & 15;
			if (hi < 10) {
				putch('0' + hi);
			} else {
				putch('a' + hi - 10);
			}
			if (lo < 10) {
				putch('0' + lo);
			} else {
				putch('a' + lo - 10);
			}
		} else {
			putch('0' + ((c >> 6) & 7));
			putch('0' + ((c >> 3) & 7));
			putch('0' + (c & 7));
		}
		putch(' ');
		i = i + 1;
	}
	return i - 1;
}
`})

	register(Program{
		Name: "fold-s", Desc: "fold with optional space-squeeze flag", Sample: "sa  b c",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int squeeze = input[0] == 's';
	int prev_space = 0;
	int i = 1;
	while (input[i] != 0) {
		int c = (int)input[i];
		int sp = isspace(c);
		if (squeeze) {
			if (sp) {
				if (!prev_space) {
					putch(' ');
				}
			} else {
				putch(c);
			}
		} else {
			putch(c);
		}
		prev_space = sp;
		i = i + 1;
	}
	return 0;
}
`})

	register(Program{
		Name: "head-v", Desc: "head with optional marker flag per byte", Sample: "m3abcde",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 2) {
		return 1;
	}
	int mark = input[0] == 'm';
	int k = (int)input[1] % 8;
	int i = 2;
	int emitted = 0;
	while (emitted < k && input[i] != 0) {
		if (mark) {
			putch('>');
		}
		putch((int)input[i]);
		i = i + 1;
		emitted = emitted + 1;
	}
	return emitted;
}
`})

	register(Program{
		Name: "hash16", Desc: "16-round mixing hash over the input", Sample: "hashable",
		Src: `
int umain(unsigned char *input, int len) {
	unsigned int h = 0x811C;
	int i = 0;
	while (input[i] != 0) {
		h = h ^ (unsigned int)(int)input[i];
		int r = 0;
		while (r < 16) {
			h = (h * 31 + 7) & 0xFFFF;
			h = h ^ (h >> 3);
			r = r + 1;
		}
		i = i + 1;
	}
	return (int)(h & 0xFF);
}
`})

	register(Program{
		Name: "mix32", Desc: "32-round bit mixer over a seed byte", Sample: "Z",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	unsigned int x = (unsigned int)(int)input[0];
	int r = 0;
	while (r < 32) {
		x = (x << 1) ^ (x >> 2) ^ ((unsigned int)r * 0x9E37);
		x = x & 0xFFFFFF;
		r = r + 1;
	}
	return (int)(x & 0xFF);
}
`})

	register(Program{
		Name: "rot13rounds", Desc: "apply rot13 a fixed 26 times (identity)", Sample: "abc",
		Src: `
int umain(unsigned char *input, int len) {
	unsigned char buf[8];
	int n = 0;
	while (n < 7 && input[n] != 0) {
		buf[n] = input[n];
		n = n + 1;
	}
	int round = 0;
	while (round < 26) {
		int i = 0;
		while (i < n) {
			int c = (int)buf[i];
			if (c >= 'a' && c <= 'z') {
				c = 'a' + (c - 'a' + 1) % 26;
			}
			buf[i] = (unsigned char)c;
			i = i + 1;
		}
		round = round + 1;
	}
	int k = 0;
	while (k < n) {
		putch((int)buf[k]);
		k = k + 1;
	}
	return n;
}
`})

	register(Program{
		Name: "split-ab", Desc: "route bytes to alternating outputs by flag", Sample: "aXYZW",
		Src: `
int umain(unsigned char *input, int len) {
	if (len < 1) {
		return 1;
	}
	int even_first = input[0] == 'a';
	int i = 1;
	while (input[i] != 0) {
		int is_even = ((i - 1) & 1) == 0;
		if (even_first) {
			if (is_even) {
				putch((int)input[i]);
			} else {
				putch('.');
			}
		} else {
			if (is_even) {
				putch('.');
			} else {
				putch((int)input[i]);
			}
		}
		i = i + 1;
	}
	return 0;
}
`})
}
