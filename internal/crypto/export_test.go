package crypto

// Accessors only this package's tests use.

// Decrypt inverts Encrypt.
func Decrypt(key, block uint64) uint64 {
	r, l := uint32(block>>32), uint32(block)
	for i := Rounds - 1; i >= 0; i-- {
		l, r = r^F(l, Subkey(key, i)), l
	}
	return uint64(l)<<32 | uint64(r)
}
