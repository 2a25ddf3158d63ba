//! Fixed-length dispatch for the byte copies of the simulator's hot paths.

/// Evaluates `$body` with `$b` bound to the byte slice `$bytes`, re-sliced
/// at a compile-time length when its length is one the simulated stores
/// move almost always: a word (8 bytes), one log record (18), two records
/// (36) or a cacheline (64). In those arms the slice copies and compares
/// of `$body` compile to fixed-size moves instead of calls to `memcpy`;
/// any other length evaluates `$body` on the slice as it is. The `mut`
/// form re-slices a mutable slice.
///
/// # Examples
///
/// ```
/// let mut line = [0u8; 256];
/// let word = 7u64.to_le_bytes();
/// silo_types::fixed_len!(b = &word[..] => line[16..16 + b.len()].copy_from_slice(b));
/// silo_types::fixed_len!(mut out = &mut line[16..24] => out[0] += 1);
/// assert_eq!(line[16], 8);
/// ```
#[macro_export]
macro_rules! fixed_len {
    ($b:ident = $bytes:expr => $body:expr) => {{
        let bytes: &[u8] = $bytes;
        match bytes.len() {
            8 => $crate::fixed_len!(@as 8, $b, bytes, $body),
            18 => $crate::fixed_len!(@as 18, $b, bytes, $body),
            36 => $crate::fixed_len!(@as 36, $b, bytes, $body),
            64 => $crate::fixed_len!(@as 64, $b, bytes, $body),
            _ => {
                let $b: &[u8] = bytes;
                $body
            }
        }
    }};
    (mut $b:ident = $bytes:expr => $body:expr) => {{
        let bytes: &mut [u8] = $bytes;
        match bytes.len() {
            8 => $crate::fixed_len!(@as_mut 8, $b, bytes, $body),
            18 => $crate::fixed_len!(@as_mut 18, $b, bytes, $body),
            36 => $crate::fixed_len!(@as_mut 36, $b, bytes, $body),
            64 => $crate::fixed_len!(@as_mut 64, $b, bytes, $body),
            _ => {
                let $b: &mut [u8] = bytes;
                $body
            }
        }
    }};
    (@as $n:literal, $b:ident, $bytes:ident, $body:expr) => {{
        let $b: &[u8] = <&[u8; $n]>::try_from($bytes).expect("the matched length");
        $body
    }};
    (@as_mut $n:literal, $b:ident, $bytes:ident, $body:expr) => {{
        let $b: &mut [u8] = <&mut [u8; $n]>::try_from($bytes).expect("the matched length");
        $body
    }};
}
