package erasure

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGFMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
}

func TestGFMulCommutativeAssociative(t *testing.T) {
	if err := quick.Check(func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulDistributive(t *testing.T) {
	if err := quick.Check(func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDivInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
		for b := 1; b < 256; b++ {
			q := gfDiv(byte(a), byte(b))
			if gfMul(q, byte(b)) != byte(a) {
				t.Fatalf("(a/b)*b != a for a=%d b=%d", a, b)
			}
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPow(t *testing.T) {
	for a := 1; a < 256; a++ {
		p := byte(1)
		for n := 0; n < 10; n++ {
			if got := gfPow(byte(a), n); got != p {
				t.Fatalf("pow(%d,%d) = %d, want %d", a, n, got, p)
			}
			p = gfMul(p, byte(a))
		}
	}
	if gfPow(0, 0) != 1 || gfPow(0, 5) != 0 {
		t.Fatal("0^0 or 0^n wrong")
	}
}

func TestNewCoderGeometry(t *testing.T) {
	for _, bad := range []struct{ k, m int }{{0, 1}, {1, 0}, {200, 60}, {-1, 2}} {
		if _, err := NewCoder(bad.k, bad.m); err == nil {
			t.Fatalf("NewCoder(%d,%d) accepted invalid geometry", bad.k, bad.m)
		}
	}
	if _, err := NewCoder(3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoder(10, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRAID5XORParity(t *testing.T) {
	// With m=1 the code must reduce to plain XOR parity.
	c, err := NewCoder(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	parity := [][]byte{make([]byte, 3)}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want := data[0][i] ^ data[1][i] ^ data[2][i]
		if parity[0][i] != want {
			t.Fatalf("m=1 parity is not XOR: got %v", parity[0])
		}
	}
}

func fillPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func testRoundTrip(t *testing.T, k, m int, kill []int) {
	t.Helper()
	c, err := NewCoder(k, m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	shards := make([][]byte, k+m)
	orig := make([][]byte, k+m)
	data := shards[:k]
	for i := 0; i < k; i++ {
		data[i] = fillPattern(n, byte(i*13+1))
	}
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, n)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	copy(shards[k:], parity)
	for i := range shards {
		orig[i] = append([]byte(nil), shards[i]...)
	}
	for _, d := range kill {
		shards[d] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatalf("k=%d m=%d kill=%v: %v", k, m, kill, err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("k=%d m=%d kill=%v: shard %d corrupted after reconstruct", k, m, kill, i)
		}
	}
}

func TestReconstructSingleDataLoss(t *testing.T)  { testRoundTrip(t, 3, 1, []int{1}) }
func TestReconstructParityLoss(t *testing.T)      { testRoundTrip(t, 3, 1, []int{3}) }
func TestReconstructRAID6TwoData(t *testing.T)    { testRoundTrip(t, 4, 2, []int{0, 2}) }
func TestReconstructRAID6DataParity(t *testing.T) { testRoundTrip(t, 4, 2, []int{3, 5}) }
func TestReconstructRAID6TwoParity(t *testing.T)  { testRoundTrip(t, 4, 2, []int{4, 5}) }
func TestReconstructWideGeometry(t *testing.T)    { testRoundTrip(t, 10, 4, []int{0, 5, 9, 11}) }
func TestReconstructNothingMissing(t *testing.T)  { testRoundTrip(t, 5, 2, nil) }

func TestReconstructAllErasurePatterns(t *testing.T) {
	// RAID 6 on 4+2: every 1- and 2-shard erasure pattern must recover.
	for a := 0; a < 6; a++ {
		testRoundTrip(t, 4, 2, []int{a})
		for b := a + 1; b < 6; b++ {
			testRoundTrip(t, 4, 2, []int{a, b})
		}
	}
}

func TestReconstructTooManyMissing(t *testing.T) {
	c, _ := NewCoder(3, 1)
	shards := make([][]byte, 4)
	shards[0] = make([]byte, 8)
	shards[1] = make([]byte, 8)
	if err := c.Reconstruct(shards); err != ErrTooManyMissing {
		t.Fatalf("err = %v, want ErrTooManyMissing", err)
	}
}

func TestVerify(t *testing.T) {
	c, _ := NewCoder(3, 2)
	data := [][]byte{fillPattern(16, 1), fillPattern(16, 2), fillPattern(16, 3)}
	parity := [][]byte{make([]byte, 16), make([]byte, 16)}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("verify of valid parity: ok=%v err=%v", ok, err)
	}
	parity[1][5] ^= 0xff
	ok, err = c.Verify(data, parity)
	if err != nil || ok {
		t.Fatalf("verify missed corruption: ok=%v err=%v", ok, err)
	}
}

func TestEncodeRejectsBadShapes(t *testing.T) {
	c, _ := NewCoder(2, 1)
	if err := c.Encode([][]byte{{1}}, [][]byte{{0}}); err == nil {
		t.Fatal("accepted wrong data shard count")
	}
	if err := c.Encode([][]byte{{1}, {2, 3}}, [][]byte{{0}}); err == nil {
		t.Fatal("accepted mismatched shard lengths")
	}
}

func TestReconstructPropertyQuick(t *testing.T) {
	// Property: for random data and any single/double erasure on a 4+2
	// geometry, reconstruction restores the original bytes.
	c, _ := NewCoder(4, 2)
	f := func(raw [16]byte, killA, killB uint8) bool {
		const n = 4
		data := make([][]byte, 4)
		for i := range data {
			data[i] = append([]byte(nil), raw[i*4:(i+1)*4]...)
		}
		parity := [][]byte{make([]byte, n), make([]byte, n)}
		if err := c.Encode(data, parity); err != nil {
			return false
		}
		shards := make([][]byte, 6)
		orig := make([][]byte, 6)
		copy(shards, data)
		copy(shards[4:], parity)
		for i := range shards {
			orig[i] = append([]byte(nil), shards[i]...)
		}
		a, b := int(killA%6), int(killB%6)
		shards[a] = nil
		shards[b] = nil
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXORHelpers(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	dst := make([]byte, 3)
	XOR(dst, a, b)
	if dst[0] != 5 || dst[1] != 7 || dst[2] != 5 {
		t.Fatalf("XOR = %v", dst)
	}
	XORInto(dst, a)
	if dst[0] != 4 || dst[1] != 5 || dst[2] != 6 {
		t.Fatalf("XORInto = %v", dst)
	}
}

func TestXORPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	XOR(make([]byte, 2), make([]byte, 3), make([]byte, 3))
}

func TestCoeffMatchesEncode(t *testing.T) {
	c, _ := NewCoder(4, 2)
	const n = 8
	data := make([][]byte, 4)
	for i := range data {
		data[i] = fillPattern(n, byte(i+1))
	}
	parity := [][]byte{make([]byte, n), make([]byte, n)}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	// Rebuild parity incrementally via Coeff/MulXor.
	for r := 0; r < 2; r++ {
		acc := make([]byte, n)
		for col := 0; col < 4; col++ {
			MulXor(c.Coeff(r, col), data[col], acc)
		}
		if !bytes.Equal(acc, parity[r]) {
			t.Fatalf("incremental parity row %d diverges", r)
		}
	}
}

func TestCoeffRAID5AllOnes(t *testing.T) {
	c, _ := NewCoder(3, 1)
	for col := 0; col < 3; col++ {
		if c.Coeff(0, col) != 1 {
			t.Fatal("RAID5 coefficients must be 1 (XOR)")
		}
	}
}
