package main

import "testing"

func TestParseReadpathSizes(t *testing.T) {
	sizes, err := parseReadpathSizes("10, 200,3000")
	if err != nil || len(sizes) != 3 || sizes[0] != 10 || sizes[2] != 3000 {
		t.Fatalf("sizes = %v, err %v", sizes, err)
	}
	for _, bad := range []string{"", "x", "10,,20", "-5"} {
		if _, err := parseReadpathSizes(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
