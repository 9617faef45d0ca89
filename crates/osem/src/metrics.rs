//! Image-quality metrics for validating reconstructions against the
//! phantom ground truth and against each other.

/// Pearson correlation coefficient between two images.
pub fn correlation(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let ma: f64 = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mb: f64 = b.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut cov = 0.0f64;
    let mut va = 0.0f64;
    let mut vb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x as f64 - ma;
        let dy = y as f64 - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    (cov / (va.sqrt() * vb.sqrt())) as f32
}

/// Relative L2 difference `||a-b|| / ||b||` — used to compare parallel
/// reconstructions against the sequential reference (atomic accumulation
/// reorders float additions, so small differences are expected).
pub fn relative_l2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        num += ((x - y) as f64).powi(2);
        den += (y as f64).powi(2);
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f32::INFINITY };
    }
    ((num / den).sqrt()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Root-mean-square error between two images.
    fn rmse(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        if a.is_empty() {
            return 0.0;
        }
        let sum: f64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| {
                let d = (*x - *y) as f64;
                d * d
            })
            .sum();
        ((sum / a.len() as f64) as f32).sqrt()
    }

    /// Maximum absolute element-wise difference.
    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn identical_images_have_zero_error() {
        let a = vec![1.0f32, 2.0, 3.0];
        assert_eq!(rmse(&a, &a), 0.0);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
        assert_eq!(relative_l2(&a, &a), 0.0);
        assert!((correlation(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rmse_of_unit_offset_is_one() {
        let a = vec![1.0f32; 10];
        let b = vec![2.0f32; 10];
        assert!((rmse(&a, &b) - 1.0).abs() < 1e-6);
        assert_eq!(max_abs_diff(&a, &b), 1.0);
    }

    #[test]
    fn correlation_detects_anticorrelation() {
        let a: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..100).map(|i| -(i as f32)).collect();
        assert!((correlation(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn constant_images_have_zero_correlation() {
        let a = vec![3.0f32; 5];
        let b: Vec<f32> = (0..5).map(|i| i as f32).collect();
        assert_eq!(correlation(&a, &b), 0.0);
    }
}
