"""Audio-visual fusion heads with arc-margin training and EER diagnostics."""
