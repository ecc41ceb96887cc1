package sim

import "testing"

func TestTimeConversions(t *testing.T) {
	if Seconds(Second) != 1.0 {
		t.Fatal("Seconds(Second) != 1")
	}
	if FromSeconds(0.5) != 500*Millisecond {
		t.Fatalf("FromSeconds(0.5) = %d", FromSeconds(0.5))
	}
	if Seconds(FromSeconds(2.5)) != 2.5 {
		t.Fatal("round trip failed")
	}
}
