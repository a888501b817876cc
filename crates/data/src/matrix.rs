//! Dense row-major matrix of encoded task attributes.

/// Row-major dense matrix handed to clustering algorithms.
///
/// Produced by [`crate::Dataset::task_matrix`]: numeric non-sensitive
/// attributes (optionally normalized) followed by one-hot blocks for
/// categorical non-sensitive attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    col_names: Vec<String>,
}

impl NumericMatrix {
    /// Construct from parts. Panics if `data.len() != rows * cols` or the
    /// column-name count mismatches — these are programming errors inside
    /// the workspace, not user-facing conditions.
    pub fn from_parts(data: Vec<f64>, rows: usize, cols: usize, col_names: Vec<String>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        assert_eq!(col_names.len(), cols, "column name count mismatch");
        Self {
            data,
            rows,
            cols,
            col_names,
        }
    }

    /// Number of rows (objects).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (encoded dimensions).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice of length [`Self::cols`].
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Borrow the full backing buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Take the backing buffer (row-major) without a copy.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Names of the encoded columns (one-hot columns are `attr=value`).
    pub fn col_names(&self) -> &[String] {
        &self.col_names
    }

    /// Iterate over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Column-wise mean vector. Returns zeros for an empty matrix.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let inv = 1.0 / self.rows as f64;
        for m in &mut means {
            *m *= inv;
        }
        means
    }

    /// Squared Euclidean distance between row `i` and an external point.
    #[inline]
    pub fn sq_dist_to(&self, i: usize, point: &[f64]) -> f64 {
        sq_euclidean(self.row(i), point)
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// This is `dist_N(X, C)` from the paper's Eq. 1 / Eq. 24 when applied to
/// encoded task vectors and cluster prototypes.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("c{i}")).collect()
    }

    #[test]
    fn shape_and_rows() {
        let m = NumericMatrix::from_parts(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3, names(3));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn bad_shape_panics() {
        let _ = NumericMatrix::from_parts(vec![1.0; 5], 2, 3, names(3));
    }

    #[test]
    fn col_means_average_rows() {
        let m = NumericMatrix::from_parts(vec![1.0, 10.0, 3.0, 30.0], 2, 2, names(2));
        assert_eq!(m.col_means(), vec![2.0, 20.0]);
    }

    #[test]
    fn col_means_empty_is_zero() {
        let m = NumericMatrix::from_parts(vec![], 0, 2, names(2));
        assert_eq!(m.col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn sq_euclidean_basics() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_euclidean(&[1.0], &[1.0]), 0.0);
    }
}
