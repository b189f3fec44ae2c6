package cnf

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/sat"
)

// cnfDigests pins the CNF of every bundled design: SHA-256 of the DIMACS
// text that cnfDigest builds. A moved hash means the encoding changed; when
// a change is meant to keep the encoding, a moved hash names a design on
// which it does not, and must not be re-recorded.
var cnfDigests = map[string]string{
	"arbiter2":  "be9759da7e73f519e087489829634dcd081f925e47030bedaf6297f7f9d6f2bc",
	"arbiter4":  "ab5337c1b2d7b3b4ab14100ae315f52e8761ad632943434a71a84cbe4ba8299a",
	"b01":       "1136bde9a364fe718e20cb61fb840f577b186e5e460e1c56b2b22dbb54eeeddd",
	"b02":       "4ceec8109e390fefb512f38e9a783823aca6c166f4b88f224b0aa18bd8c3b43a",
	"b03":       "bc38cd8132e14d3f3459da33a7408b7e47110e8b5c06655ebde1e9696c236e17",
	"b04":       "9514e465276bb187c2090eea013b21a25f8e38254650dab2cf63e06beca2f798",
	"b06":       "0fe293625847519b417bf9bc5e6690c2b63a4832b254c49c1cea2d1960c6fde1",
	"b09":       "af5d31d794927c107bb6d391c0c9e6552fbe742a89ded278e619f56ba9d6269c",
	"b10":       "63348938bd3af41f4aecf6dd2abf2f12ba188db02b8e54ba52b7a78f081650d6",
	"b11":       "6592ced7a474a3f7ecae4ea47b8f36fd35ceeca528cb73e7ec028bef92b83d57",
	"b12":       "91142844eba9895d304e6f9ec505830f61ec761b14448ac4c99f39f789f82a47",
	"b17":       "5265b2ce2c53761174134b701db31de2da4cb928b82e8e3728b29a317c9d8a49",
	"b18":       "69cde785c9c9c057daaba8f9389e7ae0ebdbad23f041d1fd2bd681a6a0629dd6",
	"cex_small": "2b215590252e964aacbdb5d283e7c92a1c7d5393f2d2b6aef38ab246bf3f41e8",
	"decode":    "16987959dfd381b9e384eae6fef5436184f32430a4307897e580b0901f54d5aa",
	"fetch":     "601c5b016fc015b0179e9ed8ef05a30dba999197ca93eebee11808364ea5d048",
	"pipeline":  "0a4e70690f569ec9b4b5ca7ed7f22b6193edcaea48328071fd7a305b3c47578e",
	"wb_stage":  "5c88a0da8ead8622824daec38dd065442eb22fc419ed13a194a8af099c4e9914",
}

// cnfDigest unrolls d for 4 frames from the reset state, encodes
// every output and register at every frame and every coverage point's
// expression at frame 1, and hashes the solver's DIMACS text.
func cnfDigest(t *testing.T, name string) string {
	t.Helper()
	b, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	u := NewUnroller(s, d)
	for i := 0; i < 4; i++ {
		u.AddFrame()
	}
	u.InitZero()
	for f := 0; f < 4; f++ {
		for _, sig := range append(d.Outputs(), d.Registers()...) {
			if _, err := u.SignalVec(f, sig); err != nil {
				t.Fatalf("%s: %s@%d: %v", name, sig.Name, f, err)
			}
		}
	}
	for _, pt := range d.Cover.Points {
		if _, err := u.EncodeExpr(pt.Expr, 1); err != nil {
			t.Fatalf("%s: point %d: %v", name, pt.ID, err)
		}
	}
	var sb strings.Builder
	if err := s.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// TestCNFDigest checks every bundled design's CNF against cnfDigests.
func TestCNFDigest(t *testing.T) {
	names := designs.Names()
	if len(names) != len(cnfDigests) {
		t.Errorf("%d bundled designs, %d pinned digests", len(names), len(cnfDigests))
	}
	for _, name := range names {
		if got, want := cnfDigest(t, name), cnfDigests[name]; got != want {
			t.Errorf("%s: CNF digest %s, pinned %s", name, got, want)
		}
	}
}
