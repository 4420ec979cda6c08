// Passes-explore shows what each -OVERIFY stage does to the paper's wc
// function: it prints the IR after every stage, ending with the
// branch-free loop body of Listing 2.
package main

import (
	"fmt"
	"log"

	"overify/internal/frontend"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
)

const wcSrc = `
int wc(unsigned char *str, int any) {
	int res = 0;
	int new_word = 1;
	for (unsigned char *p = str; *p; ++p) {
		if (isspace(*p) || (any && !isalpha(*p))) {
			new_word = 1;
		} else {
			if (new_word) {
				++res;
				new_word = 0;
			}
		}
	}
	return res;
}
`

func main() {
	progFile, err := lang.Parse(wcSrc)
	if err != nil {
		log.Fatal(err)
	}
	libFile, err := libc.Parse(libc.Verified)
	if err != nil {
		log.Fatal(err)
	}
	mod, err := frontend.LowerFiles("wc", libFile, progFile)
	if err != nil {
		log.Fatal(err)
	}

	stages := []struct{ name, spec string }{
		{"mem2reg (SSA construction)", "mem2reg"},
		{"cleanup (fold, CSE, CFG, DCE)", "simplify,cse,simplifycfg,dce"},
		{"aggressive inlining", "inline,mem2reg,simplify,cse,simplifycfg,dce"},
		{"if-conversion to fixpoint (Listing 2)",
			"fixpoint:12(ifconvert,simplify,cse,simplifycfg,dce)"},
	}

	wc := mod.Func("wc")
	fmt.Printf("=== frontend output (-O0): %d instructions, %d conditional branches ===\n",
		wc.NumInstrs(), wc.NumBranches())
	for _, st := range stages {
		spec, err := pipeline.ParsePipeline(st.spec)
		if err != nil {
			log.Fatal(err)
		}
		cfg := pipeline.Config{Cost: pipeline.VerifyCost(), Pipeline: &spec}
		if _, err := pipeline.Optimize(mod, cfg); err != nil {
			log.Fatalf("after %s: %v", st.name, err)
		}
		wc = mod.Func("wc")
		fmt.Printf("=== after %s: %d instructions, %d conditional branches ===\n",
			st.name, wc.NumInstrs(), wc.NumBranches())
	}
	fmt.Println("\nfinal wc (only the loop-header branch remains):")
	fmt.Println(mod.Func("wc").String())
}
