package tensor

import "fmt"

// DType identifies the element precision a tensor carries on the wire.
// In-memory storage and every compute kernel are always float64, so a
// DType is a *tag*: it selects the TSL2 float32 wire encoding (half the
// bytes) in the deployments that opt in, while leaving the float64
// default bit-for-bit unchanged.
//
// The zero value is Float64, so tensors constructed anywhere in the
// codebase behave exactly as before the tag existed.
type DType uint8

const (
	// Float64 is the default full-precision element type (TSL1 wire
	// format).
	Float64 DType = 0
	// Float32 is the half-bandwidth element type (TSL2 wire format).
	// Values round through IEEE-754 single precision at encode and are
	// widened back to float64 at decode.
	Float32 DType = 1
)

// Size returns the wire size of one element in bytes.
func (d DType) Size() int {
	if d == Float32 {
		return 4
	}
	return 8
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// ParseDType converts a config/flag string to a DType. The empty string
// is Float64, keeping "unset" backward compatible everywhere a dtype is
// plumbed through.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "float64", "f64":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("tensor: unknown dtype %q (want float64 or float32)", s)
	}
}

// DType returns the tensor's precision tag.
func (t *Tensor) DType() DType { return t.dtype }

// SetDType tags the tensor with a wire precision and returns t. It does
// not touch the stored values: rounding to float32 happens at encode
// time, not here.
func (t *Tensor) SetDType(d DType) *Tensor {
	t.dtype = d
	return t
}
