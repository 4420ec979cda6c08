int A[4];
int B[4];

int *pick(int c) { return c ? A : B; }

int umain(unsigned char *input, int len) {
	int *p = 0;
	int *q = 0;
	int *a = A;
	int r = 0;
	if (p == 0) { r = r + 1; }
	if (q != 0) { r = r + 100; }
	if (a != 0) { r = r + 2; }
	if (a == p) { r = r + 200; }
	if (p == q) { r = r + 8; }
	if (p <= q) { r = r + 64; }
	r = r + (int)(q - p);
	int *s = pick(input[0] == 'a');
	if (s == A) { r = r + 4; }
	if (s != B) { r = r + 16; }
	int *u = input[0] == 'z' ? p : a;
	if (u == 0) { r = r + 32; }
	int *v = input[0] == 'w' ? A + 1 : A + 2;
	r = r + *v;
	if (input[1] == 'n') { return *(input[2] == 'x' ? p : q); }
	if (input[1] == 's') { *q = 5; }
	if (input[1] == 'g') { int *t = p + input[2]; r = r + (t == 0); }
	if (input[1] == 'u') { return *u; }
	return r;
}
