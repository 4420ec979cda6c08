int umain(unsigned char *input, int len) {
	int h = 0 - 2128831035;
	int i = 0;
	while (i < 4) {
		h = (h ^ (int)input[i]) * 16777619;
		i = i + 1;
	}
	if (h == 0 - 835421763) {
		return (int)input[(int)(input[0] == 97) * 5];
	}
	return 0;
}
